(* Tests for Slpdas_util (RNG, statistics, bitsets, tables) and for the
   engine's event queue (Slpdas_sim.Event_queue), a binary heap. *)

module Rng = Slpdas_util.Rng
module Event_queue = Slpdas_sim.Event_queue
module Stats = Slpdas_util.Stats
module Bitset = Slpdas_util.Bitset
module Tabular = Slpdas_util.Tabular
module Pool = Slpdas_util.Pool

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues the same stream" va vb

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  Alcotest.(check bool) "child stream differs from parent"
    true
    (Rng.bits64 child <> Rng.bits64 a)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "non-positive bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_int_covers_range () =
  let r = Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int r 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_bernoulli_extremes () =
  let r = Rng.create 6 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0)

let test_rng_bernoulli_rate () =
  let r = Rng.create 8 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_gaussian_moments () =
  let r = Rng.create 9 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rng.gaussian r ~mean:5.0 ~std:2.0) in
  let m = Stats.mean xs and s = Stats.std xs in
  Alcotest.(check bool) "mean near 5" true (abs_float (m -. 5.0) < 0.05);
  Alcotest.(check bool) "std near 2" true (abs_float (s -. 2.0) < 0.05)

let test_rng_choose () =
  let r = Rng.create 10 in
  for _ = 1 to 100 do
    let v = Rng.choose r [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty list rejected"
    (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose r []))

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let xs = Array.init 50 Fun.id in
  Rng.shuffle r xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_shuffle_list_preserves_elements () =
  let r = Rng.create 12 in
  let xs = [ 5; 1; 4; 2; 3 ] in
  let ys = Rng.shuffle_list r xs in
  Alcotest.(check (list int)) "same multiset" (List.sort compare xs)
    (List.sort compare ys)

(* The stateless first draws are the first draws of a fresh generator, bit
   for bit, over the whole seed range: negative seeds, seeds near
   [min_int]/[max_int], and bounds from tiny to huge. *)
let prop_rng_first_draws =
  let seed =
    QCheck.Gen.(
      oneof
        [
          small_signed_int;
          int;
          map (fun d -> max_int - d) small_nat;
          map (fun d -> min_int + d) small_nat;
        ])
  in
  let bound =
    QCheck.Gen.oneofl [ 1.0; 0.15; 0.3 *. 0.5; 7.25; 1e-300; 1e300; 0.0; -2.5 ]
  in
  QCheck.Test.make ~count:1000 ~name:"first_float/first_bits62 = fresh generator"
    (QCheck.make
       ~print:QCheck.Print.(pair int float)
       QCheck.Gen.(pair seed bound))
    (fun (seed, bound) ->
      let fresh = Rng.float (Rng.create seed) bound in
      let bits =
        Int64.to_int
          (Int64.logand (Rng.bits64 (Rng.create seed)) 0x3FFFFFFFFFFFFFFFL)
      in
      Int64.equal
        (Int64.bits_of_float (Rng.first_float seed bound))
        (Int64.bits_of_float fresh)
      && Rng.first_bits62 seed = bits)

(* ------------------------------------------------------------------ *)
(* Heap: the engine's event queue, keyed (at, k1, k2)                  *)
(* ------------------------------------------------------------------ *)

(* Pop everything, returning the items in pop order. *)
let drain q =
  let rec go acc =
    if Event_queue.is_empty q then List.rev acc
    else go (Event_queue.pop q :: acc)
  in
  go []

let test_heap_basic () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "fresh queue empty" true (Event_queue.is_empty q);
  Event_queue.push q ~at:2.0 ~k1:0 ~k2:0 "late";
  Event_queue.push q ~at:1.0 ~k1:5 ~k2:0 "k1=5";
  Event_queue.push q ~at:1.0 ~k1:(-1) ~k2:9 "k1=-1";
  Event_queue.push q ~at:1.0 ~k1:5 ~k2:(-1) "k2=-1";
  Alcotest.(check int) "length" 4 (Event_queue.length q);
  Alcotest.(check (float 0.0)) "min at" 1.0 (Event_queue.min_at q);
  Alcotest.(check (pair int int)) "min key" (-1, 9)
    (Event_queue.min_k1 q, Event_queue.min_k2 q);
  Alcotest.(check bool) "min before a later k1" true
    (Event_queue.min_before q ~at:1.0 ~k1:0 ~k2:0);
  Alcotest.(check bool) "min not before itself" false
    (Event_queue.min_before q ~at:1.0 ~k1:(-1) ~k2:9);
  Alcotest.(check (list string)) "time, then k1, then k2"
    [ "k1=-1"; "k2=-1"; "k1=5"; "late" ]
    (drain q);
  Alcotest.(check bool) "nothing before anything when empty" false
    (Event_queue.min_before q ~at:infinity ~k1:max_int ~k2:max_int)

let test_heap_pop_exn_empty () =
  let q : int Event_queue.t = Event_queue.create () in
  let empty = Invalid_argument "Event_queue: empty queue" in
  Alcotest.check_raises "pop on empty" empty (fun () ->
      ignore (Event_queue.pop q));
  Alcotest.check_raises "min_at on empty" empty (fun () ->
      ignore (Event_queue.min_at q));
  Event_queue.push q ~at:0.0 ~k1:0 ~k2:0 7;
  Alcotest.(check int) "pop" 7 (Event_queue.pop q);
  Alcotest.check_raises "pop after drain" empty (fun () ->
      ignore (Event_queue.pop q))

(* Keys drawn from small ranges so equal [at] and equal [k1] (and, now and
   then, fully equal keys) are common; each item is its own key, so a pop
   is checked against the model's minimum key. *)
let key_gen =
  QCheck.Gen.(
    triple (oneofl [ 0.0; 0.001; 1.0; 1.001; 20.0 ]) (int_range (-1) 3)
      (int_range 0 7))

let print_key (at, k1, k2) = Printf.sprintf "(%g,%d,%d)" at k1 k2

let push_key q ((at, k1, k2) as key) = Event_queue.push q ~at ~k1 ~k2 key

let prop_heap_sorts =
  QCheck.Test.make ~count:300 ~name:"heap drains in sorted order"
    (QCheck.make ~print:QCheck.Print.(list print_key) (QCheck.Gen.list key_gen))
    (fun keys ->
      let q = Event_queue.create () in
      List.iter (push_key q) keys;
      drain q = List.sort compare keys)

let remove_first x = function
  | [] -> []
  | xs ->
    let rec go acc = function
      | [] -> List.rev acc
      | y :: rest -> if y = x then List.rev_append acc rest else go (y :: acc) rest
    in
    go [] xs

(* Interleaved pushes and pops against a sorted-list model: every pop, and
   the min accessors before it, must agree with the model's head. *)
let prop_heap_interleaved =
  QCheck.Test.make ~count:300 ~name:"heap min correct under interleaved ops"
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (function
             | None -> "pop"
             | Some key -> "push " ^ print_key key))
       QCheck.Gen.(list (opt ~ratio:0.6 key_gen)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match (op, List.sort compare !model) with
          | Some key, _ ->
            push_key q key;
            model := key :: !model;
            Event_queue.length q = List.length !model
          | None, [] -> Event_queue.is_empty q
          | None, ((at, k1, k2) as least) :: _ ->
            let peeked =
              (Event_queue.min_at q, Event_queue.min_k1 q, Event_queue.min_k2 q)
            in
            let before_self = Event_queue.min_before q ~at ~k1 ~k2 in
            let before_next = Event_queue.min_before q ~at ~k1 ~k2:(k2 + 1) in
            model := remove_first least !model;
            peeked = least && (not before_self) && before_next
            && Event_queue.pop q = least)
        ops)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_std () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "std" 1.0 (Stats.std [ 1.0; 2.0; 3.0 ]);
  check_float "singleton std" 0.0 (Stats.std [ 5.0 ])

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Stats.mean: empty list") (fun () ->
      ignore (Stats.mean []))

let test_stats_summary () =
  let s = Stats.summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "n" 4 s.Stats.n;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "mean" 2.5 s.Stats.mean

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "median" 3.0 (Stats.percentile xs 0.5);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 5.0 (Stats.percentile xs 1.0);
  check_float "p25" 2.0 (Stats.percentile xs 0.25)

let test_stats_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 ~z:1.96 in
  Alcotest.(check bool) "contains point estimate" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "plausible width" true (hi -. lo > 0.1 && hi -. lo < 0.3);
  let lo0, _ = Stats.wilson_interval ~successes:0 ~trials:10 ~z:1.96 in
  check_float "zero successes floor" 0.0 lo0;
  let _, hi1 = Stats.wilson_interval ~successes:10 ~trials:10 ~z:1.96 in
  check_float "all successes ceiling" 1.0 hi1

let test_stats_normal_cdf () =
  check_float "median" 0.5 (Stats.normal_cdf 0.0);
  Alcotest.(check bool) "one sigma" true
    (abs_float (Stats.normal_cdf 1.0 -. 0.8413) < 1e-3);
  Alcotest.(check bool) "symmetric" true
    (abs_float (Stats.normal_cdf (-1.96) +. Stats.normal_cdf 1.96 -. 1.0) < 1e-6);
  Alcotest.(check bool) "tail" true (Stats.normal_cdf (-6.0) < 1e-8)

let test_stats_two_proportion () =
  (* Identical proportions: p-value 1 (up to the erf approximation). *)
  Alcotest.(check bool) "equal" true
    (abs_float
       (Stats.two_proportion_p_value ~successes1:10 ~trials1:100 ~successes2:10
          ~trials2:100
       -. 1.0)
    < 1e-6);
  (* A large difference over many trials is significant. *)
  let p =
    Stats.two_proportion_p_value ~successes1:60 ~trials1:200 ~successes2:30
      ~trials2:200
  in
  Alcotest.(check bool) "significant" true (p < 0.01);
  (* The same difference over few trials is not. *)
  let p_small =
    Stats.two_proportion_p_value ~successes1:6 ~trials1:20 ~successes2:3
      ~trials2:20
  in
  Alcotest.(check bool) "underpowered" true (p_small > 0.05);
  (* Degenerate pooled variance. *)
  check_float "both zero" 1.0
    (Stats.two_proportion_p_value ~successes1:0 ~trials1:10 ~successes2:0
       ~trials2:10);
  Alcotest.check_raises "trials validated"
    (Invalid_argument "Stats.two_proportion_p_value: trials must be positive")
    (fun () ->
      ignore
        (Stats.two_proportion_p_value ~successes1:0 ~trials1:0 ~successes2:0
           ~trials2:1))

let test_stats_proportion () =
  check_float "proportion" 0.25 (Stats.proportion ~successes:1 ~trials:4);
  Alcotest.check_raises "zero trials"
    (Invalid_argument "Stats.proportion: trials must be positive") (fun () ->
      ignore (Stats.proportion ~successes:0 ~trials:0))

(* ------------------------------------------------------------------ *)
(* Bitset                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 64" false (Bitset.mem s 64);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements sorted" [ 0; 63; 99 ] (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check int) "cardinal after remove" 2 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: element out of range") (fun () ->
      ignore (Bitset.mem s 10))

let test_bitset_copy_independent () =
  let s = Bitset.create 8 in
  Bitset.add s 3;
  let c = Bitset.copy s in
  Bitset.remove c 3;
  Alcotest.(check bool) "original unaffected" true (Bitset.mem s 3)

let test_bitset_clear () =
  let s = Bitset.create 8 in
  Bitset.add s 1;
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let prop_bitset_matches_model =
  QCheck.Test.make ~count:200 ~name:"bitset agrees with a set model"
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let s = Bitset.create 64 in
      let model =
        List.fold_left
          (fun acc (add, v) ->
            if add then begin
              Bitset.add s v;
              List.sort_uniq compare (v :: acc)
            end
            else begin
              Bitset.remove s v;
              List.filter (( <> ) v) acc
            end)
          [] ops
      in
      Bitset.elements s = List.sort compare model)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_map_basic () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (list int))
        "map squares in order"
        [ 0; 1; 4; 9; 16 ]
        (Pool.map pool (fun x -> x * x) [ 0; 1; 2; 3; 4 ]))

let test_pool_map_empty () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (list int)) "empty in, empty out" []
        (Pool.map pool (fun x -> x) []))

let test_pool_reuse () =
  Pool.with_pool ~domains:2 (fun pool ->
      let a = Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ] in
      let b = Pool.map pool (fun x -> x * 10) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "first map" [ 2; 3; 4 ] a;
      Alcotest.(check (list int)) "second map on same pool" [ 10; 20; 30 ] b)

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "worker exception reaches the caller"
        (Failure "boom") (fun () ->
          ignore
            (Pool.map pool
               (fun x -> if x = 5 then failwith "boom" else x)
               (List.init 32 Fun.id)));
      (* The pool stays usable after a failed map. *)
      Alcotest.(check (list int)) "pool survives the failure" [ 1; 2 ]
        (Pool.map pool Fun.id [ 1; 2 ]))

let test_pool_invalid_domains () =
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.with_pool ~domains:0 Pool.size))

let prop_pool_matches_list_map =
  QCheck.Test.make ~count:100
    ~name:"pool map equals List.map for any size/chunk"
    QCheck.(triple (list small_int) (int_range 1 4) (int_range 1 5))
    (fun (xs, domains, chunk) ->
      Pool.with_pool ~domains (fun pool ->
          Pool.map pool ~chunk (fun x -> (x * 2) + 1) xs
          = List.map (fun x -> (x * 2) + 1) xs))

(* ------------------------------------------------------------------ *)
(* Tabular                                                            *)
(* ------------------------------------------------------------------ *)

let test_tabular_render () =
  let out =
    Tabular.render ~header:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + 2 rows + newline" 5 (List.length lines);
  Alcotest.(check bool) "header present" true
    (String.length (List.nth lines 0) > 0)

let test_tabular_ragged_rejected () =
  Alcotest.check_raises "ragged rows"
    (Invalid_argument "Tabular.render: ragged row") (fun () ->
      ignore (Tabular.render ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let test_tabular_bar_chart () =
  let out =
    Tabular.bar_chart ~title:"t" ~unit_label:"%" [ ("x", 10.0); ("y", 5.0) ]
  in
  Alcotest.(check bool) "mentions both labels" true
    (String.length out > 0
    && String.index_opt out 'x' <> None
    && String.index_opt out 'y' <> None)

let test_tabular_to_csv () =
  let csv =
    Tabular.to_csv ~header:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ]
  in
  Alcotest.(check string) "rfc4180"
    "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"multi\nline\"\n" csv;
  Alcotest.check_raises "ragged" (Invalid_argument "Tabular.to_csv: ragged row")
    (fun () -> ignore (Tabular.to_csv ~header:[ "a"; "b" ] [ [ "x" ] ]))

let test_tabular_grouped_ragged_rejected () =
  Alcotest.check_raises "grouped ragged"
    (Invalid_argument "Tabular.grouped_bar_chart: ragged row") (fun () ->
      ignore
        (Tabular.grouped_bar_chart ~title:"t" ~unit_label:"%"
           ~group_names:[ "a"; "b" ]
           [ ("row", [ 1.0 ]) ]))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_rng_bernoulli_rate;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "shuffle_list elements" `Quick
            test_rng_shuffle_list_preserves_elements;
          QCheck_alcotest.to_alcotest prop_rng_first_draws;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "pop_exn empty" `Quick test_heap_pop_exn_empty;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_interleaved;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/std" `Quick test_stats_mean_std;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "wilson interval" `Quick test_stats_wilson;
          Alcotest.test_case "normal cdf" `Quick test_stats_normal_cdf;
          Alcotest.test_case "two-proportion z" `Quick test_stats_two_proportion;
          Alcotest.test_case "proportion" `Quick test_stats_proportion;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "copy" `Quick test_bitset_copy_independent;
          Alcotest.test_case "clear" `Quick test_bitset_clear;
          QCheck_alcotest.to_alcotest prop_bitset_matches_model;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_basic;
          Alcotest.test_case "empty list" `Quick test_pool_map_empty;
          Alcotest.test_case "reuse across maps" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "invalid domains" `Quick test_pool_invalid_domains;
          QCheck_alcotest.to_alcotest prop_pool_matches_list_map;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "render" `Quick test_tabular_render;
          Alcotest.test_case "ragged rejected" `Quick test_tabular_ragged_rejected;
          Alcotest.test_case "bar chart" `Quick test_tabular_bar_chart;
          Alcotest.test_case "csv" `Quick test_tabular_to_csv;
          Alcotest.test_case "grouped ragged rejected" `Quick
            test_tabular_grouped_ragged_rejected;
        ] );
    ]
