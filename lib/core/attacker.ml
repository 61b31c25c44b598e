type heard = { location : int; slot : int }

type decide = heard:heard list -> history:int list -> current:int -> int list

type params = {
  r : int;
  h : int;
  m : int;
  start : int;
  decide : decide;
  decide_name : string;
}

let lowest_slot ~heard ~history:_ ~current =
  match heard with
  | [] -> []
  | { location; _ } :: _ -> if location = current then [] else [ location ]

let lowest_slot_avoiding_history ~heard ~history ~current =
  let fresh =
    List.filter
      (fun { location; _ } ->
        location <> current && not (List.mem location history))
      heard
  in
  match fresh with [] -> [] | { location; _ } :: _ -> [ location ]

let random_heard rng ~heard ~history:_ ~current =
  match List.filter (fun { location; _ } -> location <> current) heard with
  | [] -> []
  | candidates ->
    [ (Slpdas_util.Rng.choose rng candidates).location ]

let second_lowest ~heard ~history:_ ~current =
  match heard with
  | _ :: ({ location; _ } :: _ as _rest) when location <> current -> [ location ]
  | _ -> []

let epsilon_greedy rng ~epsilon =
  if epsilon < 0.0 || epsilon > 1.0 then
    invalid_arg "Attacker.epsilon_greedy: epsilon outside [0, 1]";
  fun ~heard ~history ~current ->
    if Slpdas_util.Rng.bernoulli rng epsilon then
      random_heard rng ~heard ~history ~current
    else lowest_slot ~heard ~history ~current

let make ?(decide = lowest_slot) ?(decide_name = "lowest-slot") ~r ~h ~m ~start
    () =
  if r < 1 then invalid_arg "Attacker.make: r must be >= 1";
  if m < 1 then invalid_arg "Attacker.make: m must be >= 1";
  if h < 0 then invalid_arg "Attacker.make: h must be >= 0";
  { r; h; m; start; decide; decide_name }

let canonical ~start = make ~r:1 ~h:0 ~m:1 ~start ()

(* [insert_capped r x kept] inserts [x] into [kept] (ascending by slot,
   length <= r) keeping only the r smallest.  Strict [<] places ties after
   existing entries, so insertion order breaks ties exactly as the stable
   sort of the naive build-sort-truncate did. *)
let rec insert_capped r x = function
  | [] -> if r > 0 then [ x ] else []
  | y :: tl ->
    if r = 0 then []
    else if x.slot < y.slot then x :: cap (r - 1) (y :: tl)
    else y :: insert_capped (r - 1) x tl

and cap r = function
  | [] -> []
  | y :: tl -> if r = 0 then [] else y :: cap (r - 1) tl

let heard_by g sched ~at ~r =
  (* The r earliest transmissions audible at [at]: itself plus its
     neighbours, in slot order.  This sits on the verifier's hot path, so
     the r smallest are selected directly rather than sorting the full
     audible list. *)
  let hear acc v =
    let slot = Schedule.raw_slot sched v in
    if slot = Schedule.none then acc
    else insert_capped r { location = v; slot } acc
  in
  Array.fold_left hear (hear [] at) (Slpdas_wsn.Graph.neighbours g at)

let hearing g sched ~r =
  (* The audible list of a location depends only on (g, sched, r), yet the
     verifier's state space revisits each location once per distinct
     (period, moves, history) combination.  Memoise per location, lazily:
     eager precomputation would dominate short searches (the deterministic
     attackers visit a handful of locations on an 11x11 grid). *)
  let cache = Array.make (Slpdas_wsn.Graph.n g) None in
  fun at ->
    match cache.(at) with
    | Some heard -> heard
    | None ->
      let heard = heard_by g sched ~at ~r in
      cache.(at) <- Some heard;
      heard

module State = struct
  type t = {
    params : params;
    mutable location : int;
    mutable buffer : heard list;  (* reversed arrival order *)
    mutable moves_made : int;
    mutable history : int list;
    mutable path_rev : int list;
  }

  let create params =
    {
      params;
      location = params.start;
      buffer = [];
      moves_made = 0;
      history = [];
      path_rev = [ params.start ];
    }

  let params t = t.params

  let location t = t.location

  let moves_made t = t.moves_made

  let history t = t.history

  let path t = List.rev t.path_rev

  let hear t ~location ~slot =
    if List.length t.buffer < t.params.r then
      t.buffer <- { location; slot } :: t.buffer

  let truncate n xs = List.filteri (fun i _ -> i < n) xs

  let decide t =
    if t.buffer = [] || t.moves_made >= t.params.m then false
    else begin
      let heard = List.rev t.buffer in
      let candidates =
        t.params.decide ~heard ~history:t.history ~current:t.location
      in
      t.buffer <- [];
      (* Fig. 1 consumes a move for every decision, including one that keeps
         the current location (D returned curloc, or no fresh candidate):
         the attacker committed its period budget to the messages heard. *)
      let next =
        match candidates with [] -> t.location | next :: _ -> next
      in
      if t.params.h > 0 then
        t.history <- truncate t.params.h (t.location :: t.history);
      let moved = next <> t.location in
      t.location <- next;
      t.moves_made <- t.moves_made + 1;
      if moved then t.path_rev <- next :: t.path_rev;
      moved
    end

  let period_end t =
    t.buffer <- [];
    t.moves_made <- 0
end
