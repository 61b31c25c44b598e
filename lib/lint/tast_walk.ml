(* Typedtree-side utilities shared by the typed tier.

   The central currency is the {e resolved component list} of a path:
   [Stdlib.Random.int] and [R.int] after [module R = Random] both resolve
   to [["Stdlib"; "Random"; "int"]], and dune's wrapped-library mangling
   ([Slpdas_util__Rng]) is unsplit to [["Slpdas_util"; "Rng"]] so unit keys
   and cross-unit references converge on one spelling.  Everything the
   typed rules and the interprocedural analyses match on goes through this
   normalization, which is what kills the alias-evasion false negatives of
   the parsetree tier. *)

open Typedtree

(* "A__B__C" -> ["A"; "B"; "C"]: dune separates wrapped-library prefixes
   with a double underscore.  Single underscores are untouched. *)
let split_dunder s =
  let n = String.length s in
  let out = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if Char.equal s.[!i] '_' && Char.equal s.[!i + 1] '_' && !i > !start then begin
      out := String.sub s !start (!i - !start) :: !out;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  out := String.sub s !start (n - !start) :: !out;
  List.rev (List.filter (fun c -> not (String.equal c "")) !out)

type state = {
  unit_comps : string list;
      (* resolved components of this compilation unit, e.g.
         ["Slpdas_serve"; "Query"] *)
  aliases : (string, string list) Hashtbl.t;
      (* Ident.unique_name of a module alias -> resolved components *)
  topvals : (string, string list) Hashtbl.t;
      (* Ident.unique_name of a unit-top-level value/module -> components *)
}

let rec components st p =
  match p with
  | Path.Pident id -> (
    let key = Ident.unique_name id in
    match Hashtbl.find_opt st.aliases key with
    | Some comps -> comps
    | None -> (
      match Hashtbl.find_opt st.topvals key with
      | Some comps -> comps
      | None -> split_dunder (Ident.name id)))
  | Path.Pdot (p, s) -> components st p @ split_dunder s
  | Path.Papply (p, _) -> components st p
  | _ -> []

let name st p = String.concat "." (components st p)

let suffix_matches comps ~suffix =
  let rec drop n xs = if n <= 0 then xs else match xs with
    | [] -> [] | _ :: tl -> drop (n - 1) tl
  in
  let lc = List.length comps and ls = List.length suffix in
  lc >= ls && List.equal String.equal (drop (lc - ls) comps) suffix

(* ------------------------------------------------------------------ *)
(* Building per-unit state                                            *)
(* ------------------------------------------------------------------ *)

let rec unwrap_module_expr me =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> unwrap_module_expr me
  | _ -> me

let is_function_literal e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let state_of_unit ~unit_name structure =
  let st =
    {
      unit_comps = split_dunder unit_name;
      aliases = Hashtbl.create 16;
      topvals = Hashtbl.create 64;
    }
  in
  (* Pass 1: module aliases anywhere in the unit (structure level, nested
     structures, let module inside expressions). *)
  let record_module_binding id me =
    match (unwrap_module_expr me).mod_desc with
    | Tmod_ident (p, _) ->
      Hashtbl.replace st.aliases (Ident.unique_name id) (components st p)
    | _ -> ()
  in
  let alias_it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          (match mb.mb_id with
          | Some id -> record_module_binding id mb.mb_expr
          | None -> ());
          Tast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_letmodule (Some id, _, _, me, _) -> record_module_binding id me
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  alias_it.structure alias_it structure;
  (* Pass 2: unit-top-level values and modules, keyed under the unit name
     (recursing into plain nested structures so "Unit.Sub.fn" resolves). *)
  let rec items prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun id ->
              Hashtbl.replace st.topvals (Ident.unique_name id)
                (prefix @ [ Ident.name id ]))
            (let_bound_idents vbs)
        | Tstr_module mb -> sub_module prefix mb
        | Tstr_recmodule mbs -> List.iter (sub_module prefix) mbs
        | _ -> ())
      str.str_items
  and sub_module prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
      let comps = prefix @ [ Ident.name id ] in
      match (unwrap_module_expr mb.mb_expr).mod_desc with
      | Tmod_ident _ -> ()  (* recorded as an alias in pass 1 *)
      | Tmod_structure str ->
        Hashtbl.replace st.topvals (Ident.unique_name id) comps;
        items comps str
      | _ -> Hashtbl.replace st.topvals (Ident.unique_name id) comps)
  in
  items st.unit_comps structure;
  st

(* ------------------------------------------------------------------ *)
(* Shared expression helpers                                          *)
(* ------------------------------------------------------------------ *)

(* The variable at the root of a mutation/draw target: [r] in [r := x],
   [t.field <- x], [!r], [e.rng].  [None] for computed values (function
   results, array elements) — per-task values selected by the task
   parameter are sanctioned, so opaque heads are deliberately untracked. *)
let rec head_path e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> head_path e
  | Texp_apply
      ( { exp_desc = Texp_ident (Path.Pdot (Path.Pident id, "!"), _, _); _ },
        [ (_, Some arg) ] )
    when String.equal (Ident.name id) "Stdlib" ->
    head_path arg
  | _ -> None

let stdlib_tail st p =
  match components st p with
  | "Stdlib" :: rest -> Some rest
  | _ -> None

(* Is this expression's type [Rng.t] (the project generator, or a fixture
   stub module of the same name)?  Resolved structurally on the type
   constructor path — no environment needed. *)
let is_rng_type st ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> suffix_matches (components st p) ~suffix:[ "Rng"; "t" ]
  | _ -> false

let spawn_target comps =
  match comps with
  | [ "Stdlib"; "Domain"; "spawn" ] -> true
  | _ ->
    suffix_matches comps ~suffix:[ "Pool"; "map" ]
    || suffix_matches comps ~suffix:[ "Pool"; "map_array" ]
    || suffix_matches comps ~suffix:[ "Pool"; "rounds" ]
    || suffix_matches comps ~suffix:[ "Domain"; "spawn" ]

let synchronized comps =
  match comps with
  | "Stdlib" :: (("Atomic" | "Mutex") :: _) -> true
  | _ ->
    (* Fixture stubs may define local Atomic/Mutex wrappers. *)
    (match List.rev comps with
    | _ :: m :: _ -> String.equal m "Atomic" || String.equal m "Mutex"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Typed re-implementations of the per-file rules                     *)
(* ------------------------------------------------------------------ *)

type ctx = {
  st : state;
  active : (string, unit) Hashtbl.t;
  diags : Diagnostic.t list ref;
}

let on ctx rule = Hashtbl.mem ctx.active rule

let add ctx rule loc message =
  ctx.diags := Diagnostic.make ~rule ~loc ~message :: !(ctx.diags)

let check_ident ctx p loc =
  match stdlib_tail ctx.st p with
  | None -> (
    (* Non-Stdlib globals: only Unix carries banned entry points. *)
    match components ctx.st p with
    | [ "Unix"; (("gettimeofday" | "time") as v) ] when on ctx "wall-clock" ->
      add ctx "wall-clock" loc
        (Printf.sprintf
           "Unix.%s reads the wall clock; timing belongs in bench/, \
            everything else must be seed-determined"
           v)
    | _ -> ())
  | Some tail -> (
    match tail with
    | "Random" :: rest when on ctx "random-stdlib" ->
      let v = match rest with v :: _ -> v | [] -> "" in
      add ctx "random-stdlib" loc
        (if String.equal v "self_init" then
           "Random.self_init seeds from the environment; every run must be \
            reproducible from a Slpdas_util.Rng root seed"
         else
           Printf.sprintf
             "stdlib Random.%s reached on a resolved path (aliases cannot \
              hide it); draw from Slpdas_util.Rng instead"
             v)
    | [ "Sys"; "time" ] when on ctx "wall-clock" ->
      add ctx "wall-clock" loc
        "Sys.time reads the wall clock; timing belongs in bench/, \
         everything else must be seed-determined"
    | [ "Hashtbl"; (("iter" | "fold") as v) ] when on ctx "hashtbl-order" ->
      add ctx "hashtbl-order" loc
        (Printf.sprintf
           "Hashtbl.%s visits buckets in unspecified order; aggregate in \
            input order (lists/arrays) so results merge deterministically \
            across domains"
           v)
    | [ "compare" ] when on ctx "poly-compare" ->
      add ctx "poly-compare" loc
        "polymorphic compare (resolved to Stdlib.compare); use Int.compare \
         / Float.compare / String.compare or a Slpdas_util.Order comparator"
    | [ "Hashtbl"; "hash" ] when on ctx "poly-compare" ->
      add ctx "poly-compare" loc
        "polymorphic Hashtbl.hash; hash the packed integer key instead"
    | [ "Hashtbl"; (("hash" | "seeded_hash" | "hash_param") as v) ]
      when on ctx "unstable-digest" ->
      add ctx "unstable-digest" loc
        (Printf.sprintf
           "Hashtbl.%s is polymorphic hashing: its value depends on the \
            OCaml version and word size, so it cannot feed a persistent \
            digest or cache key; hash through Slpdas_util.Fnv"
           v)
    | "Marshal" :: rest when on ctx "unstable-digest" ->
      add ctx "unstable-digest" loc
        (Printf.sprintf
           "Marshal.%s bytes are not stable across OCaml versions; digests \
            and cache entries must use Slpdas_util.Fnv and versioned text \
            encodings"
           (match rest with v :: _ -> v | [] -> ""))
    | [ "Hashtbl"; "create" ] when on ctx "hot-path-hashtbl" ->
      add ctx "hot-path-hashtbl" loc
        "Hashtbl.create on the engine/protocol hot path; per-node state \
         belongs in int-indexed flat arrays sized once at create \
         (struct-of-arrays) — inline-allow a justified setup-time table"
    | _ when on ctx "no-print" -> (
      match tail with
      | [ (( "print_endline" | "print_string" | "print_newline" | "print_int"
           | "print_float" | "print_char" | "print_bytes" | "stdout" ) as v) ]
        ->
        add ctx "no-print" loc
          (Printf.sprintf
             "%s writes to stdout from library code; emit through the Event \
              bus or render with Tabular"
             v)
      | [ "Printf"; "printf" ]
      | [ "Format"; ("printf" | "print_string" | "print_newline" | "std_formatter") ]
        ->
        add ctx "no-print" loc
          (Printf.sprintf "%s writes to stdout from library code; emit \
                           through the Event bus or render with Tabular"
             (String.concat "." tail))
      | _ -> ())
    | _ -> ())

(* poly-eq, typed: comparison operator applied to a value whose resolved
   type is structured (tuple, list, option, array, polymorphic variant).
   Types, not literal shapes — [let n = None in x = n] is caught. *)
let structured_type st ty =
  match Types.get_desc ty with
  | Types.Ttuple _ | Types.Tvariant _ -> true
  | Types.Tconstr (p, _, _) ->
    Path.same p Predef.path_list
    || Path.same p Predef.path_option
    || Path.same p Predef.path_array
    || suffix_matches (components st p) ~suffix:[ "list" ]
  | _ -> false

let check_poly_eq ctx f args loc =
  match f.exp_desc with
  | Texp_ident (p, _, _) -> (
    match stdlib_tail ctx.st p with
    | Some [ (("=" | "<>" | "<" | ">" | "<=" | ">=") as op) ] -> (
      match args with
      | [ (_, Some a); (_, Some b) ]
        when structured_type ctx.st a.exp_type
             || structured_type ctx.st b.exp_type ->
        add ctx "poly-eq" loc
          (Printf.sprintf
             "polymorphic (%s) against a structured value on the hot path \
              (type-resolved); pattern-match or use a typed equal \
              (Option.equal Int.equal, ...)"
             op)
      | _ -> ())
    | _ -> ())
  | _ -> ()

let check st ~rules ~path structure =
  let typed_rules = Rules.typed rules in
  let active = Hashtbl.create 8 in
  List.iter
    (fun r -> if r.Rules.applies path then Hashtbl.replace active r.Rules.name ())
    typed_rules;
  if Hashtbl.length active = 0 then []
  else begin
    let ctx = { st; active; diags = ref [] } in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_ident (p, lid, _) -> check_ident ctx p lid.Location.loc
            | Texp_apply (f, args) ->
              if on ctx "poly-eq" then check_poly_eq ctx f args e.exp_loc
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it structure;
    List.sort_uniq Diagnostic.order !(ctx.diags)
  end
