(** Orchestration: file discovery, parsing/typing, tier selection, rule
    scoping, suppression, deduplication.

    The analysis is in-memory and side-effect free apart from reading the
    scanned files (and, for the typed tier, [.cmt] files under the build
    tree), so it is safe to run from tests against fixture strings
    ({!check_source}, {!check_source_typed}) as well as over the real tree
    ({!run_tier}). *)

type config = {
  rules : Rules.t list;  (** rules to run (subset of {!Rules.all}) *)
  allowlist : Suppress.allowlist;  (** file-granular legacy exemptions *)
}

val default_config : unit -> config
(** All rules, empty allowlist. *)

exception Unknown_root of string
(** Raised by {!files_under} (and the [run] entry points) for a root that
    does not exist: a tree reorganisation must not silently turn the lint
    gate into a no-op.  The CLI reports it as a usage error (exit 2). *)

val normalize : string -> string
(** Strip leading [./] and [../] segments so paths key rule scopes and
    allowlist entries repo-relatively. *)

val check_source : config -> path:string -> source:string -> Diagnostic.t list
(** Syntactic tier over one compilation unit given as a string.  [path]
    decides which rule scopes apply.  A file that does not parse yields a
    single [parse] diagnostic. *)

val check_source_typed :
  ?cmi_dirs:string list ->
  config ->
  path:string ->
  source:string ->
  Diagnostic.t list
(** Typed tier over one fixture unit: in-process typing, then the typed
    per-file rules, flow analyses and purity certification.  A unit that
    does not type yields a single [typed-load] diagnostic. *)

val read_file : string -> string
(** Slurp a file (binary mode); exposed for the CLI's allowlist loading. *)

val files_under : string list -> string list
(** All [.ml] files under the given roots (files or directories), sorted;
    [_]- and [.]-prefixed directory entries (notably [_build]) are
    skipped.  @raise Unknown_root on a root that does not exist. *)

type tier = Syntactic | Typed | Both

val tier_of_string : string -> tier option
(** ["syntactic" | "typed" | "both"]. *)

val run_tier :
  config -> tier:tier -> cmt_root:string -> roots:string list ->
  Diagnostic.t list
(** Lint every file under [roots] with the selected tier(s).  The typed
    tier loads each file's [.cmt] from under [cmt_root] when present and
    falls back to in-process typing; files that load neither way yield
    [typed-load] diagnostics.  Results are sorted and deduplicated to one
    finding per (file, line, rule).
    @raise Unknown_root on a root that does not exist. *)

val run : config -> roots:string list -> Diagnostic.t list
(** [run_tier ~tier:Syntactic]. *)
