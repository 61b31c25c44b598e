type tier = Syntactic | Typed | Both

type t = {
  name : string;
  summary : string;
  tier : tier;
  applies : string -> bool;
}

(* Paths handed to [applies] are normalized repo-relative ("lib/sim/engine.ml"). *)

let under dir path =
  let prefix = dir ^ "/" in
  String.length path >= String.length prefix
  && String.equal (String.sub path 0 (String.length prefix)) prefix

let in_lib path = under "lib" path
let in_bin path = under "bin" path
let in_bench path = under "bench" path

let hot_path path =
  under "lib/sim" path
  || String.equal path "lib/core/verifier.ml"
  || String.equal path "lib/util/pool.ml"

let all =
  [
    {
      name = "random-stdlib";
      summary =
        "stdlib Random (and Random.self_init in particular) is banned \
         everywhere except lib/util/rng.ml: all randomness must flow from a \
         SplitMix64 root seed (Slpdas_util.Rng) so runs replay exactly";
      tier = Both;
      applies = (fun p -> not (String.equal p "lib/util/rng.ml"));
    };
    {
      name = "wall-clock";
      summary =
        "Unix.gettimeofday / Unix.time / Sys.time outside bench/: \
         wall-clock reads make output depend on the machine, voiding the \
         byte-identical-stdout determinism guarantee";
      tier = Both;
      applies = (fun p -> not (in_bench p));
    };
    {
      name = "hashtbl-order";
      summary =
        "Hashtbl.iter / Hashtbl.fold in lib/exp, lib/serve and lib/fault: \
         hash-bucket order is unspecified, and these layers merge \
         counters/caches that must aggregate in input order to stay \
         identical across BENCH_DOMAINS settings and across machines";
      tier = Both;
      applies =
        (fun p -> under "lib/exp" p || under "lib/serve" p || under "lib/fault" p);
    };
    {
      name = "domain-capture";
      summary =
        "unsynchronized mutable state (ref, mutable field, Hashtbl, Buffer) \
         captured and touched by a closure handed to Pool.map / \
         Pool.map_array / Pool.rounds / Domain.spawn: a data race under \
         parallel fan-out; use Atomic/Mutex or keep tasks parameterised by \
         value (lib/util/pool.ml itself, the sanctioned wrapper, is exempt). \
         Syntactic tier only — the typed tier runs the interprocedural \
         pool-escape upgrade instead";
      tier = Syntactic;
      applies = (fun p -> not (String.equal p "lib/util/pool.ml"));
    };
    {
      name = "poly-compare";
      summary =
        "bare polymorphic compare / Stdlib.compare / Hashtbl.hash in lib/: \
         walks arbitrary heap structure on every call; use Int.compare, \
         Float.compare or a monomorphic comparator (Slpdas_util.Order)";
      tier = Both;
      applies = in_lib;
    };
    {
      name = "poly-eq";
      summary =
        "polymorphic =/<> (or <, >, <=, >=) against a tuple, record, \
         constructor or list on the hot path (lib/sim, lib/core/verifier.ml, \
         lib/util/pool.ml): each comparison is a caml_compare call; match \
         on the structure or use a typed equal";
      tier = Both;
      applies = hot_path;
    };
    {
      name = "hot-path-hashtbl";
      summary =
        "Hashtbl.create in the engine/protocol hot paths (lib/sim, \
         lib/core/protocol.ml, lib/util/pool.ml): per-node hashtables were \
         the large-grid scaling bottleneck the struct-of-arrays layout \
         removed, and the window-barrier structures (mailboxes, round \
         handles) run thousands of times per simulated second; use \
         int-indexed flat arrays sized once at create (inline-allow the \
         few justified setup-time tables)";
      tier = Both;
      applies =
        (fun p ->
          under "lib/sim" p
          || String.equal p "lib/core/protocol.ml"
          || String.equal p "lib/util/pool.ml");
    };
    {
      name = "unstable-digest";
      summary =
        "Hashtbl.hash / seeded_hash / hash_param or Marshal in digest and \
         cache-key code (lib/wsn, lib/core, lib/serve): polymorphic hash \
         values and marshal bytes differ across OCaml versions and word \
         sizes, so persisted cache keys built from them go stale or alias \
         between machines; digest through Slpdas_util.Fnv and versioned \
         text encodings instead";
      tier = Both;
      applies =
        (fun p ->
          under "lib/wsn" p || under "lib/core" p || under "lib/serve" p);
    };
    {
      name = "no-print";
      summary =
        "Printf.printf / print_* / Format.printf / Format.std_formatter / \
         stdout in lib/ or bin/: library output goes through the Event bus \
         or Tabular so stdout stays seed-determined (CLI entry points are \
         allowlisted with a justification)";
      tier = Both;
      applies = (fun p -> in_lib p || in_bin p);
    };
    {
      name = "rng-flow";
      summary =
        "typed tier: a Slpdas_util.Rng.t handle captured from the enclosing \
         scope is used inside a closure submitted to Pool.map / \
         Pool.map_array / Pool.rounds / Domain.spawn (directly, via a \
         helper that draws from ambient RNG state, or by handing a \
         captured value — e.g. a config record with an Rng.t field — to a \
         callee parameter the interprocedural summary marks as \
         draws-through): parallel tasks racing on one generator destroy \
         byte-identical replay; pre-split one lane per task (Rng.split, in \
         submission order, or Rng.create from a per-lane seed) and pass it \
         through the task parameter";
      tier = Typed;
      applies = (fun _ -> true);
    };
    {
      name = "pool-escape";
      summary =
        "typed tier, interprocedural upgrade of domain-capture: a mutable \
         value (ref, mutable record field, Hashtbl, Buffer, Bytes) that is \
         captured by a Pool/Domain task and mutated — in the closure body \
         or by any helper function it flows through — is a data race under \
         parallel fan-out; Atomic/Mutex uses are exempted on resolved \
         typed paths (lib/util/pool.ml itself is exempt)";
      tier = Typed;
      applies = (fun p -> not (String.equal p "lib/util/pool.ml"));
    };
    {
      name = "decider-purity";
      summary =
        "typed tier: every decider registered in lib/serve/query.ml \
         (decide_fn) must be certifiably pure — its transitive call graph \
         free of mutation of non-local state, I/O, RNG draws and escaping \
         exceptions — because the serve layer caches answers keyed only on \
         (graph, schedule, attacker, decider-name): an impure decider \
         makes cache hits unsound";
      tier = Typed;
      applies = (fun p -> String.equal p "lib/serve/query.ml");
    };
  ]

let names = List.map (fun r -> r.name) all
let find name = List.find_opt (fun r -> String.equal r.name name) all

let syntactic rules =
  List.filter (fun r -> match r.tier with Typed -> false | _ -> true) rules

let typed rules =
  List.filter (fun r -> match r.tier with Syntactic -> false | _ -> true) rules

let tier_name = function
  | Syntactic -> "syntactic"
  | Typed -> "typed"
  | Both -> "both"
