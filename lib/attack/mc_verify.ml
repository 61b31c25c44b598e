(* Seeded Monte-Carlo δ-SLP certification.

   The exhaustive packed-state search of [Verifier] explores every
   admissible attacker trace; for the zoo's richer classes (global
   estimate + walk, K cooperating walkers with a shared history, patrol
   memories) the joint state space explodes, so this module estimates the
   capture probability instead: each trial resolves the class's
   nondeterminism with one seeded random walk, and the capture frequency
   over [trials] walks carries a Wilson score interval (z = 1.96, the
   95% level).

   Soundness anchor for the differential tests: a [Local] trial walks
   exactly [Verifier.successors] — the transition relation of the
   exhaustive search — resolving candidate lists uniformly.  Exhaustive
   [Safe] therefore forces zero captures, and with a deterministic decider
   (|candidates| <= 1, e.g. the canonical r = 1 attacker) exhaustive
   [Captured] forces every trial to capture with the same period.

   Determinism: trial [i] draws from [Rng.create (mix seed i)] created
   inside the trial, so results are independent of domain count and
   scheduling order (unless a [Local] decider carries its own generator);
   the fold over outcomes runs in trial-index order.

   Branch-free short-circuit: a trial reads its generator only where it
   chooses among >= 2 candidates ([pick]).  If trial 0 never did, and the
   walk consults no state shared between trials (a [Local] decider that
   captures an [Rng] would), then by induction on steps every trial takes
   trial 0's walk, so [certify] walks once and reuses the outcome. *)

module Graph = Slpdas_wsn.Graph
module Attacker = Slpdas_core.Attacker
module Schedule = Slpdas_core.Schedule
module Verifier = Slpdas_core.Verifier
module Rng = Slpdas_util.Rng

type spec = {
  cls : Model.cls;
  attacker : Attacker.params;
  trials : int;
  seed : int;
}

type result = {
  trials : int;
  captures : int;
  min_periods : int option;  (** earliest capture period over all trials *)
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

(* Every candidate choice of a trial: a singleton is taken without
   touching [rng]; a choice among >= 2 draws and flags the trial as
   [branched].  Callers never pass the empty list. *)
let pick rng branched = function
  | [ c ] -> c
  | cs ->
    branched := true;
    Rng.choose rng cs

(* ------------------------------------------------------------------ *)
(* Per-class trial walks (each returns the capture period, if any)    *)
(* ------------------------------------------------------------------ *)

(* Local: one random resolution of the exhaustive transition relation.
   Terminates because within a period at most M same-period moves are
   admissible and the period bound cuts descending chains. *)
let trial_local g sched ~attacker ~safety_period ~source rng branched =
  let rec go loc period moves history =
    match Verifier.successors g sched ~attacker ~loc ~period ~moves ~history with
    | [] -> None
    | succs ->
      let c, period', moves' = pick rng branched succs in
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
    let s = Schedule.raw_slot sched v in
    if s <> Schedule.none && s < !best then begin
      best := s;
      estimate := v
    end
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
let trial_coop g sched ~attacker ~safety_period ~source ~placement rng
    branched =
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
              let c = pick rng branched candidates in
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

let trial_sector g sched ~attacker ~safety_period ~source rng branched =
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
          let c = pick rng branched candidates in
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

(* Trial [i]'s capture period (if any) and whether it ever branched. *)
let run_trial (spec : spec) g sched ~safety_period ~source ~placement i =
  let rng = Rng.create (derive_seed spec.seed i) in
  let branched = ref false in
  let attacker = spec.attacker in
  let outcome =
    match spec.cls with
    | Model.Local ->
      trial_local g sched ~attacker ~safety_period ~source rng branched
    | Model.Global -> trial_global g sched ~attacker ~safety_period ~source
    | Model.Coop _ ->
      trial_coop g sched ~attacker ~safety_period ~source ~placement rng
        branched
    | Model.Sector_phantom ->
      trial_sector g sched ~attacker ~safety_period ~source rng branched
  in
  (outcome, !branched)

(* Only [Local] consults [attacker.decide].  The deciders [Query.decide_fn]
   hands out are pure; any other (e.g. [Attacker.epsilon_greedy rng])
   may carry state from one trial into the next. *)
let walk_is_pure (spec : spec) =
  match spec.cls with
  | Model.Local ->
    let d = spec.attacker.Attacker.decide in
    d == Attacker.lowest_slot
    || d == Attacker.lowest_slot_avoiding_history
    || d == Attacker.second_lowest
  | Model.Global | Model.Coop _ | Model.Sector_phantom -> true

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
  let trial = run_trial spec g sched ~safety_period ~source ~placement in
  let run i = fst (trial i) in
  let first, branched = trial 0 in
  let outcomes =
    if (not branched) && walk_is_pure spec then Array.make spec.trials first
    else begin
      let rest = Array.init (spec.trials - 1) (fun i -> i + 1) in
      let tail =
        if domains <= 1 then Array.map run rest
        else
          Slpdas_util.Pool.with_pool ~domains (fun pool ->
              Slpdas_util.Pool.map_array pool run rest)
      in
      Array.append [| first |] tail
    end
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
