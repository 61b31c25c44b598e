(* Differential oracle for [Protocol.catch_up]: the closure-recursive replay
   of a parked setup-round chain, whose per-round [~step] draws both of a
   dissemination gap's jitters from freshly built generators.  This is how
   the protocol woke parked chains before the replay became one index loop
   per chain carrying the next round's jitter; [Protocol.catch_up] must
   return the same position, bit for bit (test_protocol_unit.ml, "chain
   catch-up"). *)

module Protocol = Slpdas_core.Protocol
module Rng = Slpdas_util.Rng

let setup_rounds (c : Protocol.config) =
  int_of_float
    (ceil
       ((Protocol.normal_start c -. Protocol.das_start c)
       /. c.Protocol.dissemination_period))

let dissem_jitter (c : Protocol.config) ~node ~round =
  let r =
    Rng.create
      ((c.Protocol.run_seed * 31) lxor (node * 2_097_593) lxor (round * 613))
  in
  Rng.float r (0.3 *. c.Protocol.dissemination_period)

let dissem_step (c : Protocol.config) ~node ~round =
  c.Protocol.dissemination_period
  -. dissem_jitter c ~node ~round
  +. dissem_jitter c ~node ~round:(round + 1)

let process_step (c : Protocol.config) ~node:_ ~round:_ =
  c.Protocol.dissemination_period

let step = function
  | Protocol.Dissem_chain -> dissem_step
  | Protocol.Process_chain -> process_step

(* Boot-relative time of a chain's round 0. *)
let boot (c : Protocol.config) kind ~node =
  match kind with
  | Protocol.Dissem_chain -> Protocol.das_start c +. dissem_jitter c ~node ~round:0
  | Protocol.Process_chain ->
    Protocol.das_start c +. (c.Protocol.dissemination_period *. 0.8)

(* The time round [r] fires at on a node booted at 0, accumulated round by
   round as the engine adds each [Set_timer]'s [after]. *)
let chain_time c kind ~node r =
  let step = step kind in
  let rec go round at =
    if round >= r then at else go (round + 1) (at +. step c ~node ~round)
  in
  go 0 (boot c kind ~node)

(* The first round of a chain parked at ([round], [at]) that fires strictly
   after [now], or the end of the setup window, with its time. *)
let catch_up c kind ~node ~now ~round ~at =
  let rounds = setup_rounds c in
  let step = step kind in
  let rec go round at =
    if round < rounds && at <= now then go (round + 1) (at +. step c ~node ~round)
    else (round, at)
  in
  go round at
