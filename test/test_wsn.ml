(* Tests for Slpdas_wsn: graphs and topologies. *)

module Graph = Slpdas_wsn.Graph
module Topology = Slpdas_wsn.Topology
module Rng = Slpdas_util.Rng

let path4 () = Graph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ]

(* ------------------------------------------------------------------ *)
(* Graph construction                                                 *)
(* ------------------------------------------------------------------ *)

let test_create_basic () =
  let g = path4 () in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "edges" 3 (Graph.num_edges g);
  Alcotest.(check (list int)) "nbrs of 1" [ 0; 2 ] (Graph.neighbour_list g 1);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1)

let test_create_dedup () =
  let g = Graph.create ~n:3 [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "deduplicated" 1 (Graph.num_edges g)

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 [ (1, 1) ]))

let test_create_rejects_out_of_range () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: vertex 5 out of range") (fun () ->
      ignore (Graph.create ~n:2 [ (0, 5) ]))

let test_mem_edge () =
  let g = path4 () in
  Alcotest.(check bool) "0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "1-0 symmetric" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "0-2 absent" false (Graph.mem_edge g 0 2);
  Alcotest.(check bool) "out of range tolerated" false (Graph.mem_edge g 0 9)

let test_edges_sorted () =
  let g = Graph.create ~n:4 [ (2, 3); (0, 1); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "sorted u<v"
    [ (0, 1); (1, 2); (2, 3) ]
    (Graph.edges g)

(* ------------------------------------------------------------------ *)
(* Distances and connectivity                                         *)
(* ------------------------------------------------------------------ *)

let test_bfs_distances_path () =
  let g = path4 () in
  Alcotest.(check (array int)) "distances from 0" [| 0; 1; 2; 3 |]
    (Graph.bfs_distances g 0)

let test_bfs_unreachable () =
  let g = Graph.create ~n:4 [ (0, 1) ] in
  let d = Graph.bfs_distances g 0 in
  Alcotest.(check int) "unreachable marked" (-1) d.(3)

let test_hop_distance () =
  let g = path4 () in
  Alcotest.(check (option int)) "0-3" (Some 3) (Graph.hop_distance g 0 3);
  let g2 = Graph.create ~n:3 [ (0, 1) ] in
  Alcotest.(check (option int)) "disconnected" None (Graph.hop_distance g2 0 2)

let test_connectivity () =
  Alcotest.(check bool) "path connected" true (Graph.is_connected (path4 ()));
  Alcotest.(check bool) "islands" false
    (Graph.is_connected (Graph.create ~n:4 [ (0, 1); (2, 3) ]))

let test_diameter () =
  Alcotest.(check int) "path diameter" 3 (Graph.diameter (path4 ()));
  Alcotest.(check int) "disconnected" (-1)
    (Graph.diameter (Graph.create ~n:3 [ (0, 1) ]))

(* ------------------------------------------------------------------ *)
(* 2-hop neighbourhoods and shortest-path parents                     *)
(* ------------------------------------------------------------------ *)

let test_reachable_from () =
  let g = Graph.create ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let seen = Graph.reachable_from g 0 ~excluding:(fun v -> v = 2) in
  Alcotest.(check (array bool)) "cut at 2"
    [| true; true; false; false; false |]
    seen;
  let all = Graph.reachable_from g 0 ~excluding:(fun _ -> false) in
  Alcotest.(check bool) "everything without exclusions" true
    (Array.for_all Fun.id all);
  let none = Graph.reachable_from g 0 ~excluding:(fun v -> v = 0) in
  Alcotest.(check bool) "excluded source reaches nothing" true
    (Array.for_all not none)

let test_connected_components () =
  let g = Graph.create ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  Alcotest.(check (list (list int))) "three components"
    [ [ 0; 1 ]; [ 2; 3; 4 ]; [ 5 ] ]
    (Graph.connected_components g);
  let grid = (Topology.grid 4).Topology.graph in
  Alcotest.(check int) "grid is one component" 1
    (List.length (Graph.connected_components grid))

let test_two_hop_path () =
  let g = path4 () in
  Alcotest.(check (list int)) "around 0" [ 1; 2 ] (Graph.two_hop_neighbourhood g 0);
  Alcotest.(check (list int)) "around 1" [ 0; 2; 3 ]
    (Graph.two_hop_neighbourhood g 1)

let naive_two_hop g u =
  let d = Graph.bfs_distances g u in
  List.filter (fun v -> d.(v) = 1 || d.(v) = 2) (List.init (Graph.n g) Fun.id)

let prop_two_hop_matches_bfs =
  QCheck.Test.make ~count:100 ~name:"two-hop equals BFS distance 1 or 2"
    QCheck.(pair (int_bound 999) (int_range 2 7))
    (fun (seed, dim) ->
      ignore seed;
      let rng = Rng.create seed in
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let u = Rng.int rng (Graph.n g) in
      Graph.two_hop_neighbourhood g u = naive_two_hop g u)

(* Every row of [two_hop] equals [two_hop_neighbourhood] and the BFS
   definition. *)
let two_hop_rows_match g =
  let rows = Graph.two_hop g in
  Array.length rows = Graph.n g
  && List.for_all
       (fun u ->
         let row = Array.to_list rows.(u) in
         row = Graph.two_hop_neighbourhood g u && row = naive_two_hop g u)
       (List.init (Graph.n g) Fun.id)

let test_two_hop_table_edges () =
  let empty n = Graph.create ~n [] in
  Alcotest.(check bool) "n = 0" true (two_hop_rows_match (empty 0));
  Alcotest.(check bool) "n = 1" true (two_hop_rows_match (empty 1));
  Alcotest.(check bool) "isolated vertices" true
    (two_hop_rows_match (Graph.create ~n:6 [ (0, 1); (1, 2); (4, 5) ]))

(* Grids, connected unit disks and sparse random graphs with isolated
   vertices (n from 0). *)
let prop_two_hop_table =
  QCheck.Test.make ~count:300 ~name:"two_hop rows = two_hop_neighbourhood"
    QCheck.(pair (int_bound 99_999) (int_bound 2))
    (fun (seed, kind) ->
      let rng = Rng.create seed in
      let g =
        match kind with
        | 0 -> (Topology.grid (2 + Rng.int rng 9)).Topology.graph
        | 1 -> (
          match
            Topology.random_unit_disk rng ~n:(10 + Rng.int rng 40) ~side:50.0
              ~range:14.0 ~max_attempts:50
          with
          | Some topo -> topo.Topology.graph
          | None -> (Topology.grid 5).Topology.graph)
        | _ ->
          let n = Rng.int rng 30 in
          let edges =
            if n = 0 then []
            else
              List.init (Rng.int rng (n + 1)) (fun _ ->
                  (Rng.int rng n, Rng.int rng n))
              |> List.filter (fun (u, v) -> u <> v)
          in
          Graph.create ~n edges
      in
      two_hop_rows_match g)

let test_shortest_path_parents () =
  let topo = Topology.grid 3 in
  let g = topo.Topology.graph in
  (* sink of grid 3 is the centre, node 4 *)
  let dist = Graph.bfs_distances g 4 in
  Alcotest.(check (list int)) "corner 0 parents" [ 1; 3 ]
    (Graph.shortest_path_parents g ~dist 0);
  Alcotest.(check (list int)) "edge 1's parent" [ 4 ]
    (Graph.shortest_path_parents g ~dist 1);
  Alcotest.(check (list int)) "root has none" []
    (Graph.shortest_path_parents g ~dist 4)

let test_shortest_path () =
  let g = path4 () in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ])
    (Graph.shortest_path g ~src:0 ~dst:3);
  Alcotest.(check (option (list int))) "trivial" (Some [ 2 ])
    (Graph.shortest_path g ~src:2 ~dst:2);
  let g2 = Graph.create ~n:3 [ (0, 1) ] in
  Alcotest.(check (option (list int))) "none" None
    (Graph.shortest_path g2 ~src:0 ~dst:2)

let prop_shortest_path_length =
  QCheck.Test.make ~count:100 ~name:"shortest path length = BFS distance"
    QCheck.(triple (int_bound 999) (int_bound 999) (int_range 3 8))
    (fun (a, b, dim) ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      let src = a mod Graph.n g and dst = b mod Graph.n g in
      match Graph.shortest_path g ~src ~dst with
      | None -> false (* grid is connected *)
      | Some p ->
        List.length p = 1 + Option.get (Graph.hop_distance g src dst)
        && List.hd p = src
        && List.nth p (List.length p - 1) = dst)

(* ------------------------------------------------------------------ *)
(* Topologies                                                         *)
(* ------------------------------------------------------------------ *)

let test_grid_structure () =
  let topo = Topology.grid 5 in
  let g = topo.Topology.graph in
  Alcotest.(check int) "n" 25 (Graph.n g);
  (* 4-connected grid: 2*dim*(dim-1) edges *)
  Alcotest.(check int) "edges" 40 (Graph.num_edges g);
  Alcotest.(check int) "source top-left" 0 topo.Topology.source;
  Alcotest.(check int) "sink centre" 12 topo.Topology.sink;
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_grid_degrees () =
  let topo = Topology.grid 4 in
  let g = topo.Topology.graph in
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "edge degree" 3 (Graph.degree g 1);
  Alcotest.(check int) "interior degree" 4 (Graph.degree g 5)

let test_grid_distance_is_manhattan () =
  let dim = 7 in
  let topo = Topology.grid dim in
  let g = topo.Topology.graph in
  let d = Graph.bfs_distances g topo.Topology.sink in
  let sr, sc = Topology.grid_coords ~dim topo.Topology.sink in
  for v = 0 to Graph.n g - 1 do
    let r, c = Topology.grid_coords ~dim v in
    Alcotest.(check int)
      (Printf.sprintf "node %d" v)
      (abs (r - sr) + abs (c - sc))
      d.(v)
  done

let test_grid_coords_roundtrip () =
  let dim = 11 in
  for v = 0 to (dim * dim) - 1 do
    let r, c = Topology.grid_coords ~dim v in
    Alcotest.(check int) "roundtrip" v (Topology.grid_node ~dim ~row:r ~col:c)
  done

let test_grid_paper_dimensions () =
  (* §VI-A: 11x11, 15x15, 21x21 with top-left source and centre sink. *)
  List.iter
    (fun dim ->
      let topo = Topology.grid dim in
      Alcotest.(check int)
        (Printf.sprintf "dss for %dx%d" dim dim)
        (dim - 1)
        (Topology.source_sink_distance topo))
    [ 11; 15; 21 ]

let test_grid_rejects_tiny () =
  Alcotest.check_raises "dim 1" (Invalid_argument "Topology.grid: dim must be >= 2")
    (fun () -> ignore (Topology.grid 1))

let test_grid8_structure () =
  let topo = Topology.grid8 4 in
  let g = topo.Topology.graph in
  (* 4-connected edges (24) plus 2 diagonals per interior cell pair:
     2 * (dim-1)^2 = 18. *)
  Alcotest.(check int) "edges" 42 (Graph.num_edges g);
  Alcotest.(check int) "corner degree" 3 (Graph.degree g 0);
  Alcotest.(check int) "interior degree" 8 (Graph.degree g 5);
  Alcotest.(check bool) "diagonal present" true (Graph.mem_edge g 0 5);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_grid8_distances_chebyshev () =
  let dim = 6 in
  let topo = Topology.grid8 dim in
  let d = Graph.bfs_distances topo.Topology.graph 0 in
  for v = 0 to (dim * dim) - 1 do
    let r, c = Topology.grid_coords ~dim v in
    Alcotest.(check int)
      (Printf.sprintf "node %d" v)
      (max r c) (* Chebyshev distance from the corner *)
      d.(v)
  done

let test_torus_structure () =
  let topo = Topology.torus 5 in
  let g = topo.Topology.graph in
  (* Every node has degree 4; 2 n edges. *)
  Alcotest.(check int) "edges" 50 (Graph.num_edges g);
  for v = 0 to 24 do
    Alcotest.(check int) (Printf.sprintf "degree of %d" v) 4 (Graph.degree g v)
  done;
  (* Wrap-around edges exist. *)
  Alcotest.(check bool) "row wrap" true (Graph.mem_edge g 0 4);
  Alcotest.(check bool) "column wrap" true (Graph.mem_edge g 0 20)

let test_torus_no_corner () =
  (* On a torus every node has the same degree: no maximal-depth corner
     leaves exist, unlike the grid. *)
  let topo = Topology.torus 7 in
  let g = topo.Topology.graph in
  let d = Graph.bfs_distances g topo.Topology.sink in
  let max_d = Array.fold_left max 0 d in
  let deepest =
    List.filter (fun v -> d.(v) = max_d) (List.init (Graph.n g) Fun.id)
  in
  Alcotest.(check bool) "several deepest nodes" true (List.length deepest > 1)

let test_line_ring () =
  let l = Topology.line 5 in
  Alcotest.(check int) "line edges" 4 (Graph.num_edges l.Topology.graph);
  Alcotest.(check int) "line dss" 4 (Topology.source_sink_distance l);
  let r = Topology.ring 6 in
  Alcotest.(check int) "ring edges" 6 (Graph.num_edges r.Topology.graph);
  Alcotest.(check int) "ring degree" 2 (Graph.degree r.Topology.graph 0);
  Alcotest.(check int) "ring dss" 3 (Topology.source_sink_distance r)

let test_random_unit_disk () =
  let rng = Rng.create 77 in
  match Topology.random_unit_disk rng ~n:40 ~side:50.0 ~range:12.0 ~max_attempts:50 with
  | None -> Alcotest.fail "expected a connected placement"
  | Some topo ->
    let g = topo.Topology.graph in
    Alcotest.(check int) "n" 40 (Graph.n g);
    Alcotest.(check bool) "connected" true (Graph.is_connected g);
    Alcotest.(check bool) "source != sink" true
      (topo.Topology.source <> topo.Topology.sink)

let test_random_unit_disk_impossible () =
  let rng = Rng.create 78 in
  (* Tiny range in a huge area: no connected placement exists. *)
  Alcotest.(check bool) "gives up" true
    (Topology.random_unit_disk rng ~n:30 ~side:1000.0 ~range:1.0 ~max_attempts:3
    = None)

let prop_grid_positions_match_spacing =
  QCheck.Test.make ~count:50 ~name:"grid neighbours are one spacing apart"
    QCheck.(int_range 2 9)
    (fun dim ->
      let topo = Topology.grid dim in
      let g = topo.Topology.graph in
      List.for_all
        (fun (u, v) ->
          let x1, y1 = topo.Topology.positions.(u)
          and x2, y2 = topo.Topology.positions.(v) in
          let d = sqrt (((x1 -. x2) ** 2.) +. ((y1 -. y2) ** 2.)) in
          abs_float (d -. 4.5) < 1e-9)
        (Graph.edges g))

let () =
  Alcotest.run "wsn"
    [
      ( "graph",
        [
          Alcotest.test_case "create basic" `Quick test_create_basic;
          Alcotest.test_case "dedup" `Quick test_create_dedup;
          Alcotest.test_case "reject self-loop" `Quick test_create_rejects_self_loop;
          Alcotest.test_case "reject out-of-range" `Quick
            test_create_rejects_out_of_range;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "edges sorted" `Quick test_edges_sorted;
          Alcotest.test_case "bfs path" `Quick test_bfs_distances_path;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "hop distance" `Quick test_hop_distance;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "reachable_from" `Quick test_reachable_from;
          Alcotest.test_case "connected components" `Quick test_connected_components;
          Alcotest.test_case "two-hop path" `Quick test_two_hop_path;
          QCheck_alcotest.to_alcotest prop_two_hop_matches_bfs;
          Alcotest.test_case "two-hop rows: empty, single, isolated" `Quick
            test_two_hop_table_edges;
          QCheck_alcotest.to_alcotest prop_two_hop_table;
          Alcotest.test_case "shortest-path parents" `Quick
            test_shortest_path_parents;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          QCheck_alcotest.to_alcotest prop_shortest_path_length;
        ] );
      ( "topology",
        [
          Alcotest.test_case "grid structure" `Quick test_grid_structure;
          Alcotest.test_case "grid degrees" `Quick test_grid_degrees;
          Alcotest.test_case "grid distance = Manhattan" `Quick
            test_grid_distance_is_manhattan;
          Alcotest.test_case "grid coords roundtrip" `Quick
            test_grid_coords_roundtrip;
          Alcotest.test_case "paper dimensions" `Quick test_grid_paper_dimensions;
          Alcotest.test_case "tiny grid rejected" `Quick test_grid_rejects_tiny;
          Alcotest.test_case "grid8 structure" `Quick test_grid8_structure;
          Alcotest.test_case "grid8 Chebyshev distances" `Quick
            test_grid8_distances_chebyshev;
          Alcotest.test_case "torus structure" `Quick test_torus_structure;
          Alcotest.test_case "torus has no corner" `Quick test_torus_no_corner;
          Alcotest.test_case "line and ring" `Quick test_line_ring;
          Alcotest.test_case "random unit disk" `Quick test_random_unit_disk;
          Alcotest.test_case "unit disk gives up" `Quick
            test_random_unit_disk_impossible;
          QCheck_alcotest.to_alcotest prop_grid_positions_match_spacing;
        ] );
    ]
