type config = {
  rules : Rules.t list;
  allowlist : Suppress.allowlist;
}

let default_config () = { rules = Rules.all; allowlist = Suppress.empty_allowlist () }

exception Unknown_root of string

(* Repo-relative normalization: "./lib/x.ml", "../lib/x.ml" (tests run one
   directory down inside _build) and "lib/x.ml" all key the same scopes,
   suppressions and allowlist entries. *)
let normalize = Suppress.normalize_path

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  try Ok (Parse.implementation lexbuf) with
  | e -> (
    match Location.error_of_exn e with
    | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      Error
        (Diagnostic.make ~rule:"parse" ~loc
           ~message:"file does not parse; slp-lint cannot analyse it")
    | _ ->
      Error
        (Diagnostic.v ~rule:"parse" ~file:path ~line:1 ~col:0
           ~message:
             (Printf.sprintf "unexpected parser failure: %s"
                (Printexc.to_string e))))

let scoped_rules config path =
  List.filter
    (fun r ->
      r.Rules.applies path
      && not (Suppress.allowlisted config.allowlist ~file:path ~rule:r.Rules.name))
    config.rules

let check_source config ~path ~source =
  let path = normalize path in
  let rules = Rules.syntactic (scoped_rules config path) in
  if List.is_empty rules then []
  else
    match parse ~path source with
    | Error d -> [ d ]
    | Ok str ->
      let sup = Suppress.scan source in
      Walk.check ~rules str
      |> List.filter (fun d ->
             not (Suppress.allows sup ~rule:d.Diagnostic.rule ~line:d.Diagnostic.line))

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let is_ml path =
  Filename.check_suffix path ".ml"

(* Recursive .ml discovery; hidden and build directories ("_build", any
   "_"- or "."-prefixed entry) are skipped.  A root that does not exist is
   a usage error, not an empty scan — a tree reorganisation must not turn
   the lint gate into a silent no-op. *)
let files_under roots =
  let out = ref [] in
  let rec visit path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.iter (fun entry ->
             if
               String.length entry > 0
               && (not (Char.equal entry.[0] '_'))
               && not (Char.equal entry.[0] '.')
             then visit (Filename.concat path entry))
    else if is_ml path then out := path :: !out
  in
  List.iter
    (fun root ->
      if Sys.file_exists root then visit root else raise (Unknown_root root))
    roots;
  List.sort String.compare !out

(* ------------------------------------------------------------------ *)
(* Typed tier                                                         *)
(* ------------------------------------------------------------------ *)

(* Run the whole typed pipeline over already-loaded units: per-unit state,
   project call graph, per-file typed rules, the closure-boundary flow
   analyses and the decider purity certification. *)
let typed_diags config units =
  let with_state =
    List.map
      (fun (u : Cmt_loader.unit_info) ->
        (Tast_walk.state_of_unit ~unit_name:u.unit_name u.structure, u))
      units
  in
  let graph = Callgraph.build with_state in
  let per_unit =
    List.concat_map
      (fun ((st, (u : Cmt_loader.unit_info)) : Tast_walk.state * _) ->
        let rules = scoped_rules config u.Cmt_loader.src in
        Tast_walk.check st ~rules ~path:u.Cmt_loader.src u.Cmt_loader.structure
        @ Flows.check graph st ~rules ~path:u.Cmt_loader.src
            u.Cmt_loader.structure)
      with_state
  in
  per_unit @ Purity.check graph ~rules:config.rules ~units

(* Drop typed findings the source suppresses inline, and anything the
   file-granular allowlist exempts.  [sources] maps a normalized path to
   the file's text. *)
let filter_suppressed config ~sources diags =
  let scans = Hashtbl.create 16 in
  let scan_for file =
    match Hashtbl.find_opt scans file with
    | Some s -> s
    | None ->
      let s = Suppress.scan (Option.value ~default:"" (sources file)) in
      Hashtbl.replace scans file s;
      s
  in
  List.filter
    (fun (d : Diagnostic.t) ->
      (not
         (Suppress.allowlisted config.allowlist ~file:d.Diagnostic.file
            ~rule:d.Diagnostic.rule))
      && not
           (Suppress.allows (scan_for d.Diagnostic.file)
              ~rule:d.Diagnostic.rule ~line:d.Diagnostic.line))
    diags

(* When both tiers run, a rule implemented in both reports twice for the
   same site (possibly with different wording); one finding per
   (file, line, rule) is enough. *)
let dedup diags =
  let seen = Hashtbl.create 64 in
  List.sort Diagnostic.order diags
  |> List.filter (fun (d : Diagnostic.t) ->
         let key = (d.Diagnostic.file, d.Diagnostic.line, d.Diagnostic.rule) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.replace seen key ();
           true
         end)

type tier = Syntactic | Typed | Both

let tier_of_string = function
  | "syntactic" -> Some Syntactic
  | "typed" -> Some Typed
  | "both" -> Some Both
  | _ -> None

(* Acquire the typed units for the scanned files: the build tree's .cmt
   when present, in-process typing otherwise.  Returns load failures as
   [typed-load] diagnostics (infrastructure errors, not findings). *)
let load_units ~cmt_root files =
  let idx = Cmt_loader.index ~cmt_root in
  let cmi_dirs = lazy (Cmt_loader.cmi_dirs_under cmt_root) in
  List.fold_left
    (fun (units, errs) path ->
      let norm = normalize path in
      let from_cmt =
        match Cmt_loader.find idx norm with
        | None -> None
        | Some cmt -> (
          match Cmt_loader.load_cmt cmt with
          | Ok u -> Some u
          | Error _ -> None)
      in
      match from_cmt with
      | Some u -> (u :: units, errs)
      | None -> (
        match
          Cmt_loader.type_in_process ~cmi_dirs:(Lazy.force cmi_dirs) ~path:norm
            ~source:(read_file path)
        with
        | Ok u -> (u :: units, errs)
        | Error d -> (units, d :: errs)))
    ([], []) files
  |> fun (units, errs) -> (List.rev units, List.rev errs)

let run_tier config ~tier ~cmt_root ~roots =
  let files = files_under roots in
  let sources = Hashtbl.create 64 in
  List.iter
    (fun path -> Hashtbl.replace sources (normalize path) (read_file path))
    files;
  let source_of file = Hashtbl.find_opt sources file in
  let syntactic =
    match tier with
    | Typed -> []
    | Syntactic | Both ->
      List.concat_map
        (fun path ->
          check_source config ~path
            ~source:(Option.value ~default:"" (source_of (normalize path))))
        files
  in
  let typed =
    match tier with
    | Syntactic -> []
    | Typed | Both ->
      let units, errs = load_units ~cmt_root files in
      errs
      @ filter_suppressed config ~sources:source_of
          (List.map
             (fun (d : Diagnostic.t) ->
               { d with Diagnostic.file = normalize d.Diagnostic.file })
             (typed_diags config units))
  in
  dedup (syntactic @ typed)

let run config ~roots = run_tier config ~tier:Syntactic ~cmt_root:"" ~roots

(* Fixture entry point: type [source] in-process and run the full typed
   pipeline on the resulting single-unit project. *)
let check_source_typed ?(cmi_dirs = []) config ~path ~source =
  let path = normalize path in
  match Cmt_loader.type_in_process ~cmi_dirs ~path ~source with
  | Error d -> [ d ]
  | Ok u ->
    typed_diags config [ u ]
    |> List.map (fun (d : Diagnostic.t) ->
           { d with Diagnostic.file = normalize d.Diagnostic.file })
    |> filter_suppressed config ~sources:(fun file ->
           if String.equal file path then Some source else None)
    |> List.sort_uniq Diagnostic.order
