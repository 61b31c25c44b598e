(* Tests for slp-lint: each rule fires on a minimal fixture, each
   suppression mechanism silences it, scopes exempt the sanctioned sites,
   and — the meta-test — the real tree lints clean, so the pass that CI
   runs is the pass these tests pin down. *)

module Driver = Slpdas_lint.Driver
module Rules = Slpdas_lint.Rules
module Suppress = Slpdas_lint.Suppress
module Diagnostic = Slpdas_lint.Diagnostic
module Reporter = Slpdas_lint.Reporter

let config () = Driver.default_config ()

let lint ?(path = "lib/sim/fixture.ml") source =
  Driver.check_source (config ()) ~path ~source

let rules_of diags = List.map (fun d -> d.Diagnostic.rule) diags

let check_fires name rule diags =
  Alcotest.(check bool)
    (name ^ ": fires " ^ rule)
    true
    (List.exists (fun d -> String.equal d.Diagnostic.rule rule) diags)

let check_clean name diags =
  Alcotest.(check (list string)) (name ^ ": clean") [] (rules_of diags)

(* ------------------------------------------------------------------ *)
(* Rule fixtures                                                      *)
(* ------------------------------------------------------------------ *)

let test_random_stdlib () =
  check_fires "self_init" "random-stdlib"
    (lint "let f () = Random.self_init ()");
  check_fires "draw" "random-stdlib" (lint "let x = Random.int 10");
  check_fires "qualified" "random-stdlib"
    (lint "let x = Stdlib.Random.bits ()");
  check_clean "rng.ml is the sanctioned entry point"
    (lint ~path:"lib/util/rng.ml" "let x = Random.int 10")

let test_wall_clock () =
  check_fires "gettimeofday" "wall-clock"
    (lint "let t = Unix.gettimeofday ()");
  check_fires "sys-time" "wall-clock" (lint "let t = Sys.time ()");
  check_clean "bench may time"
    (lint ~path:"bench/main.ml" "let t = Unix.gettimeofday ()")

let test_hashtbl_order () =
  let src = "let f h = Hashtbl.fold (fun _ v acc -> v + acc) h 0" in
  check_fires "fold in lib/exp" "hashtbl-order"
    (lint ~path:"lib/exp/capture.ml" src);
  check_fires "iter in lib/exp" "hashtbl-order"
    (lint ~path:"lib/exp/capture.ml" "let f h = Hashtbl.iter ignore h");
  check_clean "outside lib/exp the engine may fold"
    (lint ~path:"lib/sim/engine.ml" src)

let test_domain_capture () =
  let flagged =
    [
      ( "ref write",
        "let f pool xs =\n\
        \  let hits = ref 0 in\n\
        \  Pool.map pool (fun x -> hits := !hits + x) xs" );
      ( "ref read",
        "let f pool xs r = Pool.map pool (fun x -> x + !r) xs" );
      ( "hashtbl mutation",
        "let f pool xs h = Pool.map pool (fun x -> Hashtbl.replace h x x) xs"
      );
      ( "buffer append",
        "let f pool xs b =\n\
        \  Pool.map pool (fun x -> Buffer.add_string b (string_of_int x)) xs"
      );
      ( "mutable field",
        "let f pool xs t = Pool.map pool (fun x -> t.count <- x) xs" );
      ( "domain spawn",
        "let f r = Domain.spawn (fun () -> r := 1)" );
      ( "rounds task",
        "let f pool xs r = Pool.rounds pool (fun x -> r := x) xs" );
    ]
  in
  List.iter
    (fun (name, src) -> check_fires name "domain-capture" (lint src))
    flagged;
  check_clean "closure-local state is fine"
    (lint
       "let f pool xs =\n\
        Pool.map pool (fun x -> let acc = ref 0 in acc := x; !acc) xs");
  check_clean "atomics are sanctioned"
    (lint "let f pool xs a = Pool.map pool (fun _ -> Atomic.incr a) xs");
  check_clean "mutex-protected regions are sanctioned"
    (lint
       "let f pool xs m r =\n\
        Pool.map pool (fun x -> Mutex.protect m (fun () -> r := x)) xs");
  check_clean "pure tasks are fine"
    (lint "let f pool make xs = Pool.map pool (fun c -> make c) xs")

let test_poly_compare () =
  check_fires "List.sort compare" "poly-compare"
    (lint "let f xs = List.sort compare xs");
  check_fires "Stdlib.compare" "poly-compare"
    (lint "let f a b = Stdlib.compare a b");
  check_fires "Hashtbl.hash" "poly-compare"
    (lint "let f x = Hashtbl.hash x");
  check_clean "a locally defined compare is monomorphic"
    (lint "let compare a b = Int.compare a b\nlet f xs = List.sort compare xs");
  check_clean "Int.compare is the fix" (lint "let f xs = List.sort Int.compare xs")

let test_poly_eq () =
  check_fires "= Some" "poly-eq" (lint "let f x = x = Some 3");
  check_fires "= None" "poly-eq" (lint "let f x = x = None");
  check_fires "tuple <>" "poly-eq" (lint "let f a b = (a, b) <> (1, 2)");
  check_fires "list literal" "poly-eq" (lint "let f xs = xs = [ 1 ]");
  check_clean "int equality is immediate" (lint "let f x = x = 3");
  check_clean "bool literals are immediate" (lint "let f x = x = true");
  check_fires "the protocol's handlers are on the hot path" "poly-eq"
    (lint ~path:"lib/core/protocol.ml" "let f x = x = Some 3");
  check_fires "the GCN runtime is on the hot path" "poly-eq"
    (lint ~path:"lib/gcn/slpdas_gcn.ml" "let f x = x = None");
  check_clean "outside the hot path the baselines may compare options"
    (lint ~path:"lib/core/phantom.ml" "let f x = x = Some 3")

let test_hot_path_hashtbl () =
  check_fires "engine create" "hot-path-hashtbl"
    (lint "let f n = Hashtbl.create n");
  check_fires "protocol create" "hot-path-hashtbl"
    (lint ~path:"lib/core/protocol.ml" "let f () = Hashtbl.create 16");
  check_clean "setup-time tables may be inline-allowed"
    (lint
       "(* slp-lint: allow hot-path-hashtbl *)\nlet f n = Hashtbl.create n");
  check_clean "outside the engine/protocol hot path tables are fine"
    (lint ~path:"lib/core/coverage.ml" "let f n = Hashtbl.create n")

let test_unstable_digest () =
  check_fires "Hashtbl.hash in lib/serve" "unstable-digest"
    (lint ~path:"lib/serve/cache.ml" "let key x = Hashtbl.hash x");
  check_fires "Hashtbl.seeded_hash in lib/core" "unstable-digest"
    (lint ~path:"lib/core/schedule.ml" "let key x = Hashtbl.seeded_hash 7 x");
  check_fires "Hashtbl.hash_param in lib/wsn" "unstable-digest"
    (lint ~path:"lib/wsn/graph.ml" "let key x = Hashtbl.hash_param 10 100 x");
  check_fires "Marshal bytes as digest input" "unstable-digest"
    (lint ~path:"lib/serve/cache.ml"
       "let bytes x = Marshal.to_string x []");
  check_fires "Marshal to a cache file" "unstable-digest"
    (lint ~path:"lib/serve/cache.ml"
       "let save oc x = Marshal.to_channel oc x []");
  (* Out of scope: the digest-stability contract binds lib/wsn, lib/core
     and lib/serve; elsewhere the poly-compare rule (lib/) is the only
     check on Hashtbl.hash, and Marshal is unconstrained. *)
  check_clean "Marshal outside digest scopes"
    (lint ~path:"lib/exp/capture.ml" "let bytes x = Marshal.to_string x []");
  check_clean "Hashtbl.hash outside lib/ entirely"
    (lint ~path:"bin/fixture.ml" "let key x = Hashtbl.hash x");
  check_clean "inline allow for a justified site"
    (lint ~path:"lib/serve/cache.ml"
       "let key x = Hashtbl.hash x (* slp-lint: allow all *)");
  (* Allowlist entry format: "<path> unstable-digest" exempts the file. *)
  let allowlist =
    match
      Suppress.parse_allowlist
        "# in-memory only, never persisted\n\
         lib/serve/fixture.ml unstable-digest\n\
         lib/serve/fixture.ml poly-compare\n"
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let config = { (config ()) with Driver.allowlist } in
  check_clean "allowlisted file is exempt"
    (Driver.check_source config ~path:"lib/serve/fixture.ml"
       ~source:"let key x = Hashtbl.hash x")

let test_no_print () =
  check_fires "Printf.printf" "no-print"
    (lint "let f () = Printf.printf \"%d\" 3");
  check_fires "print_endline" "no-print" (lint "let f () = print_endline \"x\"");
  check_fires "Format.printf" "no-print" (lint "let f () = Format.printf \"x\"");
  check_fires "std_formatter" "no-print"
    (lint "let f () = Format.fprintf Format.std_formatter \"x\"");
  check_fires "stdout handle" "no-print"
    (lint "let f () = output_string stdout \"x\"");
  check_clean "sprintf only builds strings"
    (lint "let f () = Printf.sprintf \"%d\" 3");
  check_clean "fprintf to a caller's formatter is fine"
    (lint "let pp ppf x = Format.fprintf ppf \"%d\" x");
  check_clean "bench prints its tables"
    (lint ~path:"bench/main.ml" "let f () = print_endline \"x\"")

(* ------------------------------------------------------------------ *)
(* Suppression and allowlist                                          *)
(* ------------------------------------------------------------------ *)

let test_suppression_comments () =
  check_clean "same-line allow"
    (lint "let x = Random.int 10 (* slp-lint: allow random-stdlib *)");
  check_clean "line-above allow"
    (lint "(* slp-lint: allow random-stdlib *)\nlet x = Random.int 10");
  check_clean "allow all"
    (lint "let x = Random.int 10 (* slp-lint: allow all *)");
  check_clean "allow-file"
    (lint
       "(* slp-lint: allow-file random-stdlib *)\n\n\n\
        let x = Random.int 10\nlet y = Random.int 3");
  check_fires "allow of another rule does not silence" "random-stdlib"
    (lint "let x = Random.int 10 (* slp-lint: allow wall-clock *)");
  check_fires "allow two lines up does not reach" "random-stdlib"
    (lint "(* slp-lint: allow random-stdlib *)\n\nlet x = Random.int 10")

let test_allowlist () =
  let allowlist =
    match
      Suppress.parse_allowlist
        "# justification: fixture\nlib/sim/fixture.ml random-stdlib\n"
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let config = { (config ()) with Driver.allowlist } in
  Alcotest.(check (list string))
    "allowlisted file is exempt" []
    (rules_of
       (Driver.check_source config ~path:"lib/sim/fixture.ml"
          ~source:"let x = Random.int 10"));
  check_fires "other files still flagged" "random-stdlib"
    (Driver.check_source config ~path:"lib/sim/other.ml"
       ~source:"let x = Random.int 10");
  (match Suppress.parse_allowlist "lib/sim/x.ml\n" with
  | Ok _ -> Alcotest.fail "malformed allowlist accepted"
  | Error _ -> ())

let test_rule_toggle () =
  let only rule =
    {
      (config ()) with
      Driver.rules = List.filter (fun r -> String.equal r.Rules.name rule) Rules.all;
    }
  in
  let source = "let x = Random.int 10\nlet t = Unix.gettimeofday ()" in
  Alcotest.(check (list string))
    "only wall-clock selected" [ "wall-clock" ]
    (rules_of
       (Driver.check_source (only "wall-clock") ~path:"lib/sim/fixture.ml"
          ~source))

let test_diagnostics_positioned () =
  match lint "let a = 1\nlet x = Random.int 10" with
  | [ d ] ->
    Alcotest.(check string) "file" "lib/sim/fixture.ml" d.Diagnostic.file;
    Alcotest.(check int) "line" 2 d.Diagnostic.line;
    Alcotest.(check bool) "to_string carries file:line" true
      (String.starts_with ~prefix:"lib/sim/fixture.ml:2:8:"
         (Diagnostic.to_string d))
  | ds ->
    Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let test_parse_error_is_diagnosed () =
  check_fires "unparsable file" "parse" (lint "let let let")

let test_json_reporter () =
  let buf = Buffer.create 256 in
  Reporter.json buf (lint "let x = Random.int 10");
  let s = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.equal (String.sub s i n) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has count" true (contains "\"count\": 1");
  Alcotest.(check bool) "names the rule" true (contains "\"random-stdlib\"")

let test_suppression_edge_cases () =
  (* CRLF line endings: the scanner splits on '\n'; a trailing '\r' must
     not glue itself onto the rule name or shift line numbers. *)
  check_clean "same-line allow under CRLF"
    (lint
       "let x = Random.int 10 (* slp-lint: allow random-stdlib *)\r\n\
        let y = 1\r\n");
  check_clean "line-above allow under CRLF"
    (lint "(* slp-lint: allow random-stdlib *)\r\nlet x = Random.int 10\r\n");
  check_fires "CRLF does not stretch the allow window" "random-stdlib"
    (lint
       "(* slp-lint: allow random-stdlib *)\r\n\r\nlet x = Random.int 10\r\n");
  (* Several rules in one directive. *)
  check_clean "two rules, one comment"
    (lint
       "let x = Random.int 10 let t = Unix.gettimeofday () (* slp-lint: \
        allow random-stdlib wall-clock *)");
  check_fires "rule not named in the list still fires" "wall-clock"
    (lint
       "let x = Random.int 10 let t = Unix.gettimeofday () (* slp-lint: \
        allow random-stdlib *)");
  check_clean "allow-file with several rules"
    (lint
       "(* slp-lint: allow-file random-stdlib wall-clock *)\n\
        let x = Random.int 10\n\
        let t = Unix.gettimeofday ()");
  (* "./"-prefixed allowlist entries normalize to the same key the driver
     uses for scanned paths. *)
  let allowlist =
    match
      Suppress.parse_allowlist "./lib/sim/fixture.ml random-stdlib\n"
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let config = { (config ()) with Driver.allowlist } in
  check_clean "./-prefixed allowlist path matches"
    (Driver.check_source config ~path:"lib/sim/fixture.ml"
       ~source:"let x = Random.int 10");
  check_clean "./-prefixed scanned path matches a plain entry"
    (Driver.check_source config ~path:"./lib/sim/fixture.ml"
       ~source:"let x = Random.int 10")

(* ------------------------------------------------------------------ *)
(* Typed tier: alias-proof per-file rules                             *)
(* ------------------------------------------------------------------ *)

let tlint ?(path = "lib/sim/fixture.ml") source =
  Driver.check_source_typed (config ()) ~path ~source

let test_typed_resolves_aliases () =
  (* The acceptance fixture: a module alias hides stdlib Random from the
     syntactic tier; the typed tier resolves it. *)
  let src = "module R = Random\nlet x = R.int 10" in
  check_clean "syntactic tier is blind to the alias" (lint src);
  check_fires "typed tier resolves the alias" "random-stdlib" (tlint src);
  (* Same story for a Hashtbl alias in an ordering-sensitive layer. *)
  let src = "module H = Hashtbl\nlet f h = H.iter (fun _ _ -> ()) h" in
  check_clean "syntactic tier is blind to the Hashtbl alias"
    (lint ~path:"lib/serve/fixture.ml" src);
  check_fires "typed tier resolves the Hashtbl alias" "hashtbl-order"
    (tlint ~path:"lib/serve/fixture.ml" src);
  (* Direct spellings still fire on the typed tier. *)
  check_fires "typed tier flags the direct spelling" "random-stdlib"
    (tlint "let x = Stdlib.Random.bits ()");
  check_fires "typed wall-clock" "wall-clock" (tlint "let t = Sys.time ()");
  (* And inline suppression applies to typed findings too. *)
  check_clean "typed finding suppressed inline"
    (tlint
       "module R = Random\n\
        (* slp-lint: allow random-stdlib *)\n\
        let x = R.int 10")

let test_typed_poly_eq_on_types () =
  (* Type-directed: the syntactic tier needs a literal Some/None/tuple at
     the comparison; the typed tier sees through bindings. *)
  let src = "let n = None\nlet f x = x = n" in
  check_clean "syntactic tier misses the bound option" (lint src);
  check_fires "typed tier resolves the option type" "poly-eq" (tlint src);
  check_fires "typed: the protocol's handlers are on the hot path" "poly-eq"
    (tlint ~path:"lib/core/protocol.ml" src);
  check_clean "typed: int equality is immediate" (tlint "let f x = x = 3")

let test_typed_load_failure () =
  match tlint "let let let" with
  | [ d ] ->
    Alcotest.(check string) "rule" "typed-load" d.Diagnostic.rule
  | ds ->
    Alcotest.failf "expected one typed-load diagnostic, got %d"
      (List.length ds)

(* ------------------------------------------------------------------ *)
(* Typed tier: interprocedural flows                                  *)
(* ------------------------------------------------------------------ *)

(* Self-contained stand-ins for the project's Pool and Rng; the analyses
   match Pool.map / Rng.t on resolved path tails, so local modules with
   the same names exercise the same code paths without needing cmi files
   for the real libraries. *)
let pool_stub = "module Pool = struct let map _p f xs = List.map f xs end\n"

let rng_stub =
  "module Rng = struct\n\
  \  type t = { mutable s : int }\n\
  \  let create seed = { s = seed }\n\
  \  let split r n = Array.init n (fun i -> { s = r.s + i })\n\
  \  let int r n = r.s <- r.s + 1; r.s mod (max n 1)\n\
   end\n"

let test_pool_escape_smuggled_ref () =
  (* The acceptance fixture: a top-level helper mutates its argument, and
     the task closure hands it a captured ref.  No mutation syntax appears
     inside the closure, so the syntactic tier is blind. *)
  let src =
    pool_stub
    ^ "let counter = ref 0\n\
       let bump r = r := !r + 1\n\
       let go pool xs = Pool.map pool (fun _ -> bump counter) xs"
  in
  check_clean "syntactic tier misses the smuggled ref" (lint src);
  check_fires "typed tier tracks the ref through the helper" "pool-escape"
    (tlint src)

let test_pool_escape_direct_and_exempt () =
  check_fires "direct captured-ref mutation" "pool-escape"
    (tlint
       (pool_stub
      ^ "let go pool xs =\n\
        \  let hits = ref 0 in\n\
        \  Pool.map pool (fun x -> hits := x) xs"));
  check_fires "ambient mutation through a named task" "pool-escape"
    (tlint
       (pool_stub
      ^ "let total = ref 0\n\
         let task x = total := !total + x\n\
         let go pool xs = Pool.map pool task xs"));
  check_clean "task-local state is fine"
    (tlint
       (pool_stub
      ^ "let go pool xs =\n\
        \  Pool.map pool (fun x -> let acc = ref 0 in acc := x; !acc) xs"));
  check_clean "atomics are sanctioned on typed paths"
    (tlint
       (pool_stub
      ^ "let go pool a xs = Pool.map pool (fun _ -> Atomic.incr a) xs"));
  check_clean "per-task values selected through the argument are sanctioned"
    (tlint
       (pool_stub
      ^ "let go pool (bufs : Buffer.t array) xs =\n\
        \  Pool.map pool (fun i -> Buffer.add_char bufs.(i) 'x') xs"))

let test_rng_flow () =
  let shared =
    pool_stub ^ rng_stub
    ^ "let go pool rng xs = Pool.map pool (fun x -> Rng.int rng x) xs"
  in
  check_clean "syntactic tier has no rng-flow" (lint shared);
  check_fires "captured shared handle" "rng-flow" (tlint shared);
  check_fires "ambient draw through a helper" "rng-flow"
    (tlint
       (pool_stub ^ rng_stub
      ^ "let shared = Rng.create 42\n\
         let draw n = Rng.int shared n\n\
         let go pool xs = Pool.map pool (fun x -> draw x) xs"));
  check_clean "per-lane handles through the task argument"
    (tlint
       (pool_stub ^ rng_stub
      ^ "let go pool rng xs =\n\
        \  let lanes = Rng.split rng (List.length xs) in\n\
        \  Pool.map pool (fun i -> Rng.int lanes.(i) i) xs"));
  check_clean "handle bound by the task parameter"
    (tlint
       (pool_stub ^ rng_stub
      ^ "let go pool pairs = Pool.map pool (fun (rng, x) -> Rng.int rng x) \
         pairs"));
  check_clean "task-local generator"
    (tlint
       (pool_stub ^ rng_stub
      ^ "let go pool xs =\n\
        \  Pool.map pool (fun seed -> Rng.int (Rng.create seed) 10) xs"))

let test_rng_flow_record_param () =
  (* The acceptance fixture: a Monte-Carlo-style trial helper draws through
     a record parameter's Rng.t field, and the Pool closure hands it a
     captured record.  No Rng.t-typed ident crosses the closure boundary,
     so the syntactic tier (and the plain captured-ident typed check) are
     both blind; only the draws-through parameter summary sees it. *)
  let wrapped =
    pool_stub ^ rng_stub
    ^ "type cfg = { rng : Rng.t; budget : int }\n\
       let trial c i = Rng.int c.rng (c.budget + i)\n\
       let go pool (c : cfg) xs = Pool.map pool (fun i -> trial c i) xs"
  in
  check_clean "syntactic tier misses the wrapped handle" (lint wrapped);
  check_fires "typed tier tracks the draw through the record param" "rng-flow"
    (tlint wrapped);
  (* Same helper, per-lane handles: each task builds its own record from a
     split lane, so nothing captured feeds the draws-through parameter. *)
  check_clean "per-lane records through Rng.split are sanctioned"
    (tlint
       (pool_stub ^ rng_stub
      ^ "type cfg = { rng : Rng.t; budget : int }\n\
         let trial c i = Rng.int c.rng (c.budget + i)\n\
         let go pool rng xs =\n\
        \  let lanes = Rng.split rng (List.length xs) in\n\
        \  Pool.map pool (fun i -> trial { rng = lanes.(i); budget = 3 } i) \
         xs"));
  (* Direct field draw from a captured record, no helper at all. *)
  check_fires "captured record field drawn directly" "rng-flow"
    (tlint
       (pool_stub ^ rng_stub
      ^ "type cfg = { rng : Rng.t; budget : int }\n\
         let go pool (c : cfg) xs =\n\
        \  Pool.map pool (fun i -> Rng.int c.rng i) xs"))

(* ------------------------------------------------------------------ *)
(* Typed tier: decider purity                                         *)
(* ------------------------------------------------------------------ *)

let qlint source =
  Driver.check_source_typed (config ()) ~path:"lib/serve/query.ml" ~source

let test_decider_purity () =
  check_clean "pure decider certifies"
    (qlint
       "let lowest xs = List.fold_left min max_int xs\n\
        let decide_fn () = lowest");
  (* The acceptance fixture: a registered decider that mutates state. *)
  let impure =
    "let hits = ref 0\n\
     let lowest xs = hits := !hits + 1; List.fold_left min max_int xs\n\
     let decide_fn () = lowest"
  in
  check_clean "syntactic tier cannot certify deciders"
    (Driver.check_source (config ()) ~path:"lib/serve/query.ml" ~source:impure);
  check_fires "impure registered decider" "decider-purity" (qlint impure);
  check_fires "decider that may raise" "decider-purity"
    (qlint
       "let lowest = function [] -> failwith \"empty\" | x :: _ -> x\n\
        let decide_fn () = lowest");
  check_fires "decider reaching a partial stdlib function" "decider-purity"
    (qlint "let lowest xs = List.hd xs\nlet decide_fn () = lowest");
  check_clean "raise absorbed by a try is pure"
    (qlint
       "let lowest xs = try List.fold_left min max_int xs with _ -> 0\n\
        let decide_fn () = lowest");
  check_fires "missing registry function" "decider-purity"
    (qlint "let unrelated x = x + 1");
  check_clean "the registry only binds query.ml"
    (Driver.check_source_typed (config ()) ~path:"lib/serve/other.ml"
       ~source:"let unrelated x = x + 1")

(* ------------------------------------------------------------------ *)
(* Baseline ratchet and SARIF                                         *)
(* ------------------------------------------------------------------ *)

module Baseline = Slpdas_lint.Baseline
module Sarif = Slpdas_lint.Sarif

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) needle || go (i + 1)) in
  go 0

let test_baseline () =
  let d file line rule =
    Diagnostic.v ~rule ~file ~line ~col:0 ~message:"m"
  in
  let diags =
    [ d "lib/a.ml" 3 "no-print"; d "lib/a.ml" 9 "no-print";
      d "lib/b.ml" 1 "poly-eq" ]
  in
  let b =
    match Baseline.parse "# note\nlib/a.ml no-print 1\n./lib/b.ml poly-eq 1\n" with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (match Baseline.apply b diags with
  | [ survivor ] ->
    Alcotest.(check string) "net-new finding survives" "lib/a.ml"
      survivor.Diagnostic.file
  | ds -> Alcotest.failf "expected one survivor, got %d" (List.length ds));
  (* Round trip: a rendered baseline absorbs exactly the findings it was
     rendered from. *)
  let b2 =
    match Baseline.parse (Baseline.render diags) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "round trip absorbs everything" 0
    (List.length (Baseline.apply b2 diags));
  (match Baseline.parse "lib/a.ml no-print zero\n" with
  | Ok _ -> Alcotest.fail "malformed baseline accepted"
  | Error _ -> ())

let test_sarif () =
  let diags =
    [ Diagnostic.v ~rule:"random-stdlib" ~file:"lib/a.ml" ~line:3 ~col:4
        ~message:"no \"ambient\" randomness" ]
  in
  let s = Sarif.render ~rules:Rules.all diags in
  Alcotest.(check bool) "version" true (contains ~needle:"\"2.1.0\"" s);
  Alcotest.(check bool) "rule id" true
    (contains ~needle:"\"ruleId\":\"random-stdlib\"" s);
  Alcotest.(check bool) "1-based column" true
    (contains ~needle:"\"startColumn\":5" s);
  Alcotest.(check bool) "escaped message" true
    (contains ~needle:"no \\\"ambient\\\" randomness" s)

(* ------------------------------------------------------------------ *)
(* Meta: the shipped tree is lint-clean, and a seeded violation is not *)
(* ------------------------------------------------------------------ *)

let repo_roots () =
  (* Tests run in _build/default/test; the tests stanza declares
     source_tree deps on the real roots, which dune mirrors one level up. *)
  List.filter Sys.file_exists [ "../lib"; "../bin"; "../bench" ]

let test_tree_is_clean () =
  let roots = repo_roots () in
  if List.length roots < 3 then
    Alcotest.fail "source tree not visible from the test sandbox";
  let allowlist =
    match Suppress.parse_allowlist (Driver.read_file "../.slp-lint-allowlist") with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let config = { (config ()) with Driver.allowlist } in
  let diags = Driver.run config ~roots in
  Alcotest.(check (list string))
    "zero unsuppressed diagnostics over lib/ bin/ bench/" []
    (List.map Diagnostic.to_string diags)

let test_unknown_root_rejected () =
  (* Regression: a missing root used to be skipped silently, so a tree
     reorganisation could turn the CI lint gate into a no-op. *)
  (match Driver.files_under [ "no-such-root" ] with
  | exception Driver.Unknown_root r ->
    Alcotest.(check string) "names the root" "no-such-root" r
  | _ -> Alcotest.fail "nonexistent root was silently skipped");
  match Driver.files_under [ "../lib"; "no-such-root" ] with
  | exception Driver.Unknown_root _ -> ()
  | _ -> Alcotest.fail "bad root hidden by a good one was silently skipped"

let test_typed_tree_is_clean () =
  (* Typed-tier meta-test over the real tree.  Tests run in
     _build/default/test, so the build tree — and every .cmt — is one
     level up.  When the cmts are not there (sandboxed or partial build),
     skip rather than fail: the CI lint job runs the same check against a
     full build. *)
  let cmt_root = ".." in
  let have_cmts =
    Sys.file_exists "../lib/util/.slpdas_util.objs/byte"
  in
  if not have_cmts then ()
  else begin
    let roots = repo_roots () in
    if List.length roots < 3 then
      Alcotest.fail "source tree not visible from the test sandbox";
    let allowlist =
      match Suppress.parse_allowlist (Driver.read_file "../.slp-lint-allowlist") with
      | Ok a -> a
      | Error e -> Alcotest.fail e
    in
    let config = { (config ()) with Driver.allowlist } in
    let diags = Driver.run_tier config ~tier:Driver.Typed ~cmt_root ~roots in
    (* Files whose cmt is missing fall back to in-process typing, which
       cannot see opam libraries; ignore those load reports and hold the
       actual analyses to zero findings. *)
    let findings =
      List.filter
        (fun d -> not (String.equal d.Diagnostic.rule "typed-load"))
        diags
    in
    Alcotest.(check (list string))
      "typed tier: zero findings over lib/ bin/ bench/" []
      (List.map Diagnostic.to_string findings)
  end

let test_seeded_violation_caught () =
  (* The acceptance check from the issue, without mutating the tree:
     engine.ml plus one stray self_init must flag at the right file. *)
  let engine = Driver.read_file "../lib/sim/engine.ml" in
  let seeded = engine ^ "\nlet _seeded = Random.self_init ()\n" in
  let diags =
    Driver.check_source (config ()) ~path:"lib/sim/engine.ml" ~source:seeded
  in
  check_fires "seeded self_init" "random-stdlib" diags;
  let clean =
    Driver.check_source (config ()) ~path:"lib/sim/engine.ml" ~source:engine
  in
  check_clean "pristine engine.ml" clean

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "random-stdlib" `Quick test_random_stdlib;
          Alcotest.test_case "wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "hashtbl-order" `Quick test_hashtbl_order;
          Alcotest.test_case "domain-capture" `Quick test_domain_capture;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "poly-eq" `Quick test_poly_eq;
          Alcotest.test_case "hot-path-hashtbl" `Quick test_hot_path_hashtbl;
          Alcotest.test_case "unstable-digest" `Quick test_unstable_digest;
          Alcotest.test_case "no-print" `Quick test_no_print;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "inline comments" `Quick test_suppression_comments;
          Alcotest.test_case "allowlist file" `Quick test_allowlist;
          Alcotest.test_case "rule toggling" `Quick test_rule_toggle;
          Alcotest.test_case "edge cases" `Quick test_suppression_edge_cases;
        ] );
      ( "typed-tier",
        [
          Alcotest.test_case "alias resolution" `Quick test_typed_resolves_aliases;
          Alcotest.test_case "type-directed poly-eq" `Quick
            test_typed_poly_eq_on_types;
          Alcotest.test_case "load failures" `Quick test_typed_load_failure;
          Alcotest.test_case "pool-escape: smuggled ref" `Quick
            test_pool_escape_smuggled_ref;
          Alcotest.test_case "pool-escape: direct and exempt" `Quick
            test_pool_escape_direct_and_exempt;
          Alcotest.test_case "rng-flow" `Quick test_rng_flow;
          Alcotest.test_case "rng-flow record param" `Quick
            test_rng_flow_record_param;
          Alcotest.test_case "decider purity" `Quick test_decider_purity;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "positions" `Quick test_diagnostics_positioned;
          Alcotest.test_case "parse errors" `Quick test_parse_error_is_diagnosed;
          Alcotest.test_case "json" `Quick test_json_reporter;
          Alcotest.test_case "baseline ratchet" `Quick test_baseline;
          Alcotest.test_case "sarif" `Quick test_sarif;
        ] );
      ( "meta",
        [
          Alcotest.test_case "tree is clean" `Quick test_tree_is_clean;
          Alcotest.test_case "unknown roots rejected" `Quick
            test_unknown_root_rejected;
          Alcotest.test_case "typed tree is clean" `Quick
            test_typed_tree_is_clean;
          Alcotest.test_case "seeded violation" `Quick test_seeded_violation_caught;
        ] );
    ]
