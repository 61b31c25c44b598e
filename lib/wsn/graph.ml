type t = {
  n : int;
  adj : int array array;
  num_edges : int;
  (* Lazily computed structural fingerprint; the adjacency is immutable, so
     once computed the memo stays valid.  A concurrent double-compute writes
     the same text twice — benign. *)
  mutable fingerprint_memo : string option;
  (* Every vertex's 2-hop row, built on first use and then shared by every
     caller.  Atomic, so a row table built on one domain is fully visible
     to every other domain that reads the memo; a concurrent double-build
     stores equal rows twice — benign. *)
  two_hop_memo : int array array option Atomic.t;
}

module Int_set = Set.Make (Int)

let create ~n edges =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  let sets = Array.make (max n 1) Int_set.empty in
  let check v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.create: vertex %d out of range" v)
  in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      if u = v then invalid_arg "Graph.create: self-loop";
      sets.(u) <- Int_set.add v sets.(u);
      sets.(v) <- Int_set.add u sets.(v))
    edges;
  let adj =
    Array.init n (fun u -> Array.of_list (Int_set.elements sets.(u)))
  in
  let num_edges =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2
  in
  {
    n;
    adj;
    num_edges;
    fingerprint_memo = None;
    two_hop_memo = Atomic.make None;
  }

(* Bulk-build path: adjacency handed over as one CSR pair (offsets +
   targets).  Rows are validated, sliced and kept — no per-vertex sets, no
   intermediate edge list — so construction is O(n + m) with small
   constants; a 1000x1000 grid (1M vertices, ~2M edges) builds in well
   under a second.  The sorted-row requirement makes the result
   indistinguishable from [create] on the same edge set. *)
let of_csr ~n ~offsets ~targets =
  if n < 0 then invalid_arg "Graph.of_csr: negative vertex count";
  if Array.length offsets <> n + 1 then
    invalid_arg "Graph.of_csr: offsets must have length n + 1";
  if n > 0 && offsets.(0) <> 0 then
    invalid_arg "Graph.of_csr: offsets must start at 0";
  if n > 0 && offsets.(n) <> Array.length targets then
    invalid_arg "Graph.of_csr: offsets must end at the targets length";
  for u = 0 to n - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    if lo > hi then invalid_arg "Graph.of_csr: offsets must be non-decreasing";
    for i = lo to hi - 1 do
      let v = targets.(i) in
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.of_csr: vertex %d out of range" v);
      if v = u then invalid_arg "Graph.of_csr: self-loop";
      if i > lo && targets.(i - 1) >= v then
        invalid_arg "Graph.of_csr: rows must be strictly increasing"
    done
  done;
  let adj =
    Array.init n (fun u ->
        Array.sub targets offsets.(u) (offsets.(u + 1) - offsets.(u)))
  in
  let g =
    {
      n;
      adj;
      num_edges = Array.length targets / 2;
      fingerprint_memo = None;
      two_hop_memo = Atomic.make None;
    }
  in
  (* Symmetry check via binary search in the mirror row: O(m log degree). *)
  let rec mem a v lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then mem a v (mid + 1) hi
      else mem a v lo mid
    end
  in
  for u = 0 to n - 1 do
    Array.iter
      (fun v ->
        let row = adj.(v) in
        if not (mem row u 0 (Array.length row)) then
          invalid_arg
            (Printf.sprintf "Graph.of_csr: arc %d->%d has no mirror" u v))
      adj.(u)
  done;
  if Array.length targets mod 2 <> 0 then
    invalid_arg "Graph.of_csr: odd arc count cannot be symmetric";
  g

let n g = g.n

let num_edges g = g.num_edges

let neighbours g u =
  if u < 0 || u >= g.n then invalid_arg "Graph.neighbours: vertex out of range";
  g.adj.(u)

let neighbour_list g u = Array.to_list (neighbours g u)

let degree g u = Array.length (neighbours g u)

let mem_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then false
  else begin
    let a = g.adj.(u) in
    (* Binary search in the sorted adjacency array. *)
    let rec search lo hi =
      if lo >= hi then false
      else begin
        let mid = (lo + hi) / 2 in
        if a.(mid) = v then true
        else if a.(mid) < v then search (mid + 1) hi
        else search lo mid
      end
    in
    search 0 (Array.length a)
  end

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let a = g.adj.(u) in
    for i = Array.length a - 1 downto 0 do
      if u < a.(i) then acc := (u, a.(i)) :: !acc
    done
  done;
  List.sort Slpdas_util.Order.int_pair !acc

let fold_vertices f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    acc := f u !acc
  done;
  !acc

let bfs_distances g src =
  if src < 0 || src >= g.n then
    invalid_arg "Graph.bfs_distances: vertex out of range";
  let dist = Array.make g.n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  dist

let hop_distance g u v =
  let dist = bfs_distances g u in
  if dist.(v) < 0 then None else Some dist.(v)

let is_connected g =
  if g.n = 0 then true
  else begin
    let dist = bfs_distances g 0 in
    Array.for_all (fun d -> d >= 0) dist
  end

let reachable_from g src ~excluding =
  if src < 0 || src >= g.n then
    invalid_arg "Graph.reachable_from: vertex out of range";
  let seen = Array.make g.n false in
  if not (excluding src) then begin
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      Array.iter
        (fun v ->
          if (not seen.(v)) && not (excluding v) then begin
            seen.(v) <- true;
            Queue.add v queue
          end)
        g.adj.(u)
    done
  end;
  seen

let connected_components g =
  let assigned = Array.make g.n false in
  let components = ref [] in
  for v = 0 to g.n - 1 do
    if not assigned.(v) then begin
      let members = ref [] in
      let queue = Queue.create () in
      assigned.(v) <- true;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        members := u :: !members;
        Array.iter
          (fun w ->
            if not assigned.(w) then begin
              assigned.(w) <- true;
              Queue.add w queue
            end)
          g.adj.(u)
      done;
      components := List.sort Int.compare !members :: !components
    end
  done;
  List.rev !components

let diameter g =
  if g.n = 0 then 0
  else begin
    let best = ref 0 in
    let disconnected = ref false in
    for u = 0 to g.n - 1 do
      let dist = bfs_distances g u in
      Array.iter
        (fun d -> if d < 0 then disconnected := true else best := max !best d)
        dist
    done;
    if !disconnected then -1 else !best
  end

(* How many entries [u]'s 2-hop row can hold at most: its neighbours plus
   their neighbours, duplicates counted. *)
let two_hop_width g u =
  let nu = g.adj.(u) and width = ref 0 in
  for i = 0 to Array.length nu - 1 do
    width := !width + 1 + Array.length g.adj.(nu.(i))
  done;
  !width

(* Inserts [x] into the sorted, duplicate-free [buf.(0 .. k-1)] unless it
   is already there; returns the new length. *)
let insert_sorted buf k x =
  let i = ref k in
  while !i > 0 && buf.(!i - 1) > x do
    decr i
  done;
  if !i > 0 && buf.(!i - 1) = x then k
  else begin
    for j = k downto !i + 1 do
      buf.(j) <- buf.(j - 1)
    done;
    buf.(!i) <- x;
    k + 1
  end

(* Gathers [u]'s 2-hop row into [buf] by insertion and returns its length.
   The cost depends only on the degrees around [u], never on n (an n-bit
   set would make every all-vertices sweep quadratic in the network size),
   and on a grid, where a row holds a dozen entries, insertion beats a
   sort. *)
let fill_two_hop g buf u =
  let nu = g.adj.(u) in
  let k = ref 0 in
  for i = 0 to Array.length nu - 1 do
    let v = nu.(i) in
    k := insert_sorted buf !k v;
    let nv = g.adj.(v) in
    for j = 0 to Array.length nv - 1 do
      if nv.(j) <> u then k := insert_sorted buf !k nv.(j)
    done
  done;
  !k

let two_hop_neighbourhood g u =
  if u < 0 || u >= g.n then
    invalid_arg "Graph.two_hop_neighbourhood: vertex out of range";
  let buf = Array.make (two_hop_width g u) 0 in
  Array.to_list (Array.sub buf 0 (fill_two_hop g buf u))

(* One scratch buffer, as wide as the widest row, serves every row; each
   row is then copied out at its exact size. *)
let build_two_hop g =
  let width = ref 0 in
  for u = 0 to g.n - 1 do
    width := max !width (two_hop_width g u)
  done;
  let buf = Array.make !width 0 in
  Array.init g.n (fun u -> Array.sub buf 0 (fill_two_hop g buf u))

let two_hop g =
  match Atomic.get g.two_hop_memo with
  | Some rows -> rows
  | None ->
    let rows = build_two_hop g in
    Atomic.set g.two_hop_memo (Some rows);
    rows

let shortest_path_parents g ~dist u =
  if Array.length dist <> g.n then
    invalid_arg "Graph.shortest_path_parents: distance array arity mismatch";
  Array.to_list g.adj.(u)
  |> List.filter (fun m -> dist.(u) > 0 && dist.(m) = dist.(u) - 1)

let shortest_path g ~src ~dst =
  let dist = bfs_distances g dst in
  if dist.(src) < 0 then None
  else begin
    (* Walk the distance gradient from src to dst, taking the least
       neighbour id at every step: deterministic and lexicographically
       least among shortest paths. *)
    let rec walk u acc =
      if u = dst then List.rev (u :: acc)
      else begin
        match shortest_path_parents g ~dist u with
        | [] -> assert false (* dist.(u) >= 1 guarantees a parent *)
        | m :: _ -> walk m (u :: acc)
      end
    in
    Some (walk src [])
  end

let fingerprint g =
  match g.fingerprint_memo with
  | Some fp -> fp
  | None ->
      let h = Slpdas_util.Fnv.create () in
      Slpdas_util.Fnv.add_int h g.n;
      Array.iter
        (fun row ->
          Slpdas_util.Fnv.add_int h (Array.length row);
          Array.iter (Slpdas_util.Fnv.add_int h) row)
        g.adj;
      let fp = "g1-" ^ Slpdas_util.Fnv.hex h in
      g.fingerprint_memo <- Some fp;
      fp

let pp ppf g =
  Format.fprintf ppf "@[<v>graph with %d vertices, %d edges@]" g.n g.num_edges
