(* Behaviour fingerprint of the benchmark workloads at small sizes: equal
   workload seeds give identical per-op work counts and passing output
   checks, and another seed feeds the library other seeds (DES run seeds,
   deployment seeds, serve pool deployments). *)

module W = Pipeline_bench.Workload

let small =
  [
    ("des-fig5", 4, fun tr ~seed -> W.des_fig5 ~dim:7 tr ~seed);
    ("grid-pipeline", 2, fun tr ~seed -> W.grid_pipeline ~dim:21 ~until:5 tr ~seed);
    ( "serve-mix",
      6,
      fun tr ~seed ->
        W.serve_mix ~dims:[ 7; 11 ] ~pool_seeds:2 ~exhaustive:12 ~mc:4 ~fill:64 tr
          ~seed );
  ]

(* The seeds fed to the library, and the set-up counts followed by the
   counts of the first [ops] ops, after checking that every request of
   those ops passed. *)
let fingerprint make ~ops ~seed =
  let w = make (Pipeline_bench.Trace.create ()) ~seed in
  let per_op =
    List.init ops (fun _ ->
        let op = w.W.run_op () in
        Alcotest.(check int) "every request passes its checks" op.W.requests
          op.W.passed;
        op.W.counts)
  in
  (w.W.inputs (), w.W.setup_counts :: per_op)

let counts = Alcotest.(list (list (pair string (float 0.))))

let case (name, ops, make) =
  Alcotest.test_case name `Quick (fun () ->
      let inputs, a = fingerprint make ~ops ~seed:7 in
      let _, b = fingerprint make ~ops ~seed:7 in
      Alcotest.check counts "same seed, same counts" a b;
      let other, _ = fingerprint make ~ops ~seed:8 in
      Alcotest.(check bool) "seeds were fed" true (inputs <> []);
      Alcotest.(check int) "as many seeds fed" (List.length inputs)
        (List.length other);
      Alcotest.(check bool) "another seed, other inputs" false (inputs = other))

let () = Alcotest.run "pipeline-bench" [ ("fingerprint", List.map case small) ]
