(* Differential oracle for [Mc_verify.certify]: the all-trials
   certification that walks every one of the [trials] seeded trials, kept
   verbatim.  [Mc_verify.certify] walks trial 0 once and reuses it when no
   trial can branch; it must reproduce these results field for field
   (test_attack.ml, "mc-oracle"). *)

module Model = Slpdas_attack.Model
module Graph = Slpdas_wsn.Graph
module Attacker = Slpdas_core.Attacker
module Schedule = Slpdas_core.Schedule
module Verifier = Slpdas_core.Verifier
module Rng = Slpdas_util.Rng

type spec = Slpdas_attack.Mc_verify.spec = {
  cls : Model.cls;
  attacker : Attacker.params;
  trials : int;
  seed : int;
}

type result = Slpdas_attack.Mc_verify.result = {
  trials : int;
  captures : int;
  min_periods : int option;
  p_hat : float;
  wilson_low : float;
  wilson_high : float;
}

let make_result ~trials ~captures ~min_periods =
  let p_hat = float_of_int captures /. float_of_int (max 1 trials) in
  let lo, hi =
    Slpdas_util.Stats.wilson_interval ~successes:captures ~trials ~z:1.96
  in
  { trials; captures; min_periods; p_hat; wilson_low = lo; wilson_high = hi }

let truncate n xs = List.filteri (fun i _ -> i < n) xs

(* ------------------------------------------------------------------ *)
(* Per-class trial walks (each returns the capture period, if any)    *)
(* ------------------------------------------------------------------ *)

(* Local: one random resolution of the exhaustive transition relation.
   Terminates because within a period at most M same-period moves are
   admissible and the period bound cuts descending chains. *)
let trial_local g sched ~attacker ~safety_period ~source rng =
  let rec go loc period moves history =
    match Verifier.successors g sched ~attacker ~loc ~period ~moves ~history with
    | [] -> None
    | succs ->
      let c, period', moves' =
        match succs with [ s ] -> s | _ -> Rng.choose rng succs
      in
      if period' > safety_period then None
      else if c = source then Some period'
      else
        let history' =
          if attacker.Attacker.h > 0 then
            truncate attacker.Attacker.h (loc :: history)
          else history
        in
        go c period' moves' history'
  in
  go attacker.Attacker.start 0 0 []

(* Global: deterministic.  The earliest slot transmits first in every TDMA
   period, so first-transmission timing points at the argmin-slot node
   (ties to the lowest id); the walk follows the lexicographically-least
   shortest path at M hops per period. *)
let trial_global g sched ~attacker ~safety_period ~source =
  let estimate = ref (-1) and best = ref max_int in
  for v = 0 to Graph.n g - 1 do
    match Schedule.slot sched v with
    | Some s when s < !best ->
      best := s;
      estimate := v
    | Some _ | None -> ()
  done;
  if !estimate < 0 then None
  else begin
    let dist = Graph.bfs_distances g !estimate in
    let start = attacker.Attacker.start in
    if dist.(start) < 0 then None
    else begin
      let m = attacker.Attacker.m in
      let rec walk loc steps =
        if loc = source && steps > 0 then begin
          let period = (steps + m - 1) / m in
          if period <= safety_period then Some period else None
        end
        else if loc = !estimate then None
        else begin
          let d = dist.(loc) in
          let next = ref (-1) in
          Array.iter
            (fun nb -> if !next < 0 && dist.(nb) = d - 1 then next := nb)
            (Graph.neighbours g loc);
          if !next < 0 then None else walk !next (steps + 1)
        end
      in
      walk start 0
    end
  end

(* Audible transmitting locations under the R budget, excluding [at]. *)
let audible_fresh g sched ~r ~at ~fresh =
  List.filter_map
    (fun { Attacker.location = c; _ } ->
      if c <> at && fresh c then Some c else None)
    (Attacker.heard_by g sched ~at ~r)

(* Coop: K walkers take M hops each per period, sharing one visited set
   (the mergeable observation history) — a walker never re-explores ground
   any teammate has covered.  Nondeterminism: a uniform choice among the
   audible unvisited candidates (widens with R). *)
let trial_coop g sched ~attacker ~safety_period ~source ~placement rng =
  let k = Array.length placement in
  let locs = Array.copy placement in
  let visited = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace visited v ()) locs;
  if Array.exists (fun v -> v = source) locs then Some 0
  else begin
    let exception Captured of int in
    try
      for period = 1 to safety_period do
        for i = 0 to k - 1 do
          for _mv = 1 to attacker.Attacker.m do
            match
              audible_fresh g sched ~r:attacker.Attacker.r ~at:locs.(i)
                ~fresh:(fun c -> not (Hashtbl.mem visited c))
            with
            | [] -> ()
            | candidates ->
              let c = Rng.choose rng candidates in
              locs.(i) <- c;
              Hashtbl.replace visited c ();
              if c = source then raise (Captured period)
          done
        done
      done;
      None
    with Captured p -> Some p
  end

(* Sector-phantom patrol: a single walker with a short patrol memory — it
   avoids its last few positions, falling back to any audible candidate
   when boxed in, so it keeps sweeping instead of parking. *)
let patrol_memory = 8

let trial_sector g sched ~attacker ~safety_period ~source rng =
  let recent = Array.make patrol_memory (-1) in
  let head = ref 0 in
  let remember v =
    recent.(!head) <- v;
    head := (!head + 1) mod patrol_memory
  in
  let loc = ref attacker.Attacker.start in
  remember !loc;
  let exception Captured of int in
  try
    for period = 1 to safety_period do
      for _mv = 1 to attacker.Attacker.m do
        let fresh c = not (Array.exists (fun x -> x = c) recent) in
        let candidates =
          match
            audible_fresh g sched ~r:attacker.Attacker.r ~at:!loc ~fresh
          with
          | [] ->
            audible_fresh g sched ~r:attacker.Attacker.r ~at:!loc
              ~fresh:(fun _ -> true)
          | cs -> cs
        in
        match candidates with
        | [] -> ()
        | _ ->
          let c = Rng.choose rng candidates in
          loc := c;
          remember c;
          if c = source then raise (Captured period)
      done
    done;
    None
  with Captured p -> Some p

(* ------------------------------------------------------------------ *)
(* Certification                                                      *)
(* ------------------------------------------------------------------ *)

let derive_seed seed i = (seed * 0x9E37_79B9) lxor (i * 0x85EB_CA6B)

let run_trial (spec : spec) g sched ~safety_period ~source ~placement i =
  let rng = Rng.create (derive_seed spec.seed i) in
  let attacker = spec.attacker in
  match spec.cls with
  | Model.Local -> trial_local g sched ~attacker ~safety_period ~source rng
  | Model.Global -> trial_global g sched ~attacker ~safety_period ~source
  | Model.Coop _ ->
    trial_coop g sched ~attacker ~safety_period ~source ~placement rng
  | Model.Sector_phantom ->
    trial_sector g sched ~attacker ~safety_period ~source rng

let certify ?(domains = 1) (spec : spec) g sched ~safety_period ~source =
  if spec.trials < 1 then invalid_arg "Mc_verify.certify: trials < 1";
  if safety_period < 0 then invalid_arg "Mc_verify.certify: negative safety";
  let placement =
    match spec.cls with
    | Model.Coop k ->
      Model.placements ~n:(Graph.n g) ~start:spec.attacker.Attacker.start
        ~seed:spec.seed k
    | _ -> [||]
  in
  let run i = run_trial spec g sched ~safety_period ~source ~placement i in
  let idx = Array.init spec.trials (fun i -> i) in
  let outcomes =
    if domains <= 1 then Array.map run idx
    else
      Slpdas_util.Pool.with_pool ~domains (fun pool ->
          Slpdas_util.Pool.map_array pool run idx)
  in
  let captures = ref 0 and min_periods = ref None in
  Array.iter
    (function
      | Some p ->
        incr captures;
        (match !min_periods with
        | Some q when q <= p -> ()
        | _ -> min_periods := Some p)
      | None -> ())
    outcomes;
  make_result ~trials:spec.trials ~captures:!captures ~min_periods:!min_periods
