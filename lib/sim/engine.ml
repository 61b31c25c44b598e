let propagation_delay = 0.001

type impl = Fast | Reference

(* Per-topology link-decision cache (Fast impl).  Built once at [create];
   collapses a delivery decision to at most one RNG draw and a float
   compare.  [rx_power] is one flat float array in CSR layout ([off] mirrors
   the adjacency offsets), computed with exactly the float expression
   [Link_model.delivered] uses, so verdicts are bit-identical to the
   reference path — and a million-node topology costs one allocation, not
   one per node. *)
type link_cache =
  | Always_delivered
  | Never_delivered
  | Bernoulli_loss of float  (* loss probability p, 0 < p < 1: one draw *)
  | Gaussian_rx of {
      noise_mean : float;
      noise_std : float;
      snr_threshold : float;
      off : int array;  (* off.(u): base of u's row in [rx_power] *)
      rx_power : float array;
          (* rx_power.(off.(u) + i): u → its i-th neighbour *)
    }

(* Coupled sharding (conservative lookahead windows, see Shard).  A coupled
   engine hosts one cell of a larger deployment: its nodes keep their global
   identities ([global_ids]), every RNG draw a node makes comes from that
   node's own lane (so draw sequences are per-node, not per-schedule), and
   the cut edges the shard planner kept are materialised as *boundary
   ports* — per-node CSR rows recording, for each cut neighbour, its
   position inside the node's full global adjacency row ([ports_pos]), its
   global id and its coordinates.  A broadcast walks local neighbours and
   ports merged back into global-row order, so the draw sequence on the
   sender's lane is exactly the unsharded engine's; deliveries crossing the
   boundary leave through [send] and re-enter the destination cell via
   {!ingest_delivery} at a window barrier. *)
type 'm coupling = {
  global_ids : int array;  (* local id -> global id, strictly ascending *)
  lanes : Slpdas_util.Rng.t array;  (* per-local-node RNG lanes *)
  ports_off : int array;  (* CSR offsets, length n_local + 1 *)
  ports_pos : int array;  (* position within the node's global adjacency row *)
  ports_target : int array;  (* global id of the cut neighbour *)
  ports_x : float array;  (* cut-neighbour coordinates (for link physics) *)
  ports_y : float array;
  send : at:float -> src:int -> sseq:int -> target:int -> msg:'m -> unit;
}

(* One transmission's payload, shared by every arrival of it: the
   observable sender id, the message, and the [Receive] trigger the
   recipients are handed, built once per transmission. *)
type 'm arrival = { sender : int; msg : 'm; rx : 'm Slpdas_gcn.trigger }

type ('s, 'm) event =
  | Timer_fire of { node : int; timer : Slpdas_gcn.Timer.t; generation : int }
  | Deliver of { node : int; arrival : 'm arrival }
      (* Reference impl: one event per (broadcast × delivered neighbour). *)
  | Deliver_batch of {
      arrival : 'm arrival;
      recipients : int array;
      keys : int array;
    }
      (* Fast impl: one event per broadcast; [propagation_delay] is a
         constant, so all of a broadcast's arrivals share one timestamp and
         expand at pop time in adjacency order — the order the reference
         impl pushes (and therefore pops) its singleton events in.  Under
         coupling, [keys] holds each recipient's stable k2 (the batch event
         itself is queued under the first); uncoupled batches leave it
         empty. *)
  | Callback of (('s, 'm) t -> unit)

and ('s, 'm) t = {
  topology : Slpdas_wsn.Topology.t;
  link : Link_model.t;
  impl : impl;
  airtime : float option;
  recent_broadcasts : (float * int) Queue.t;  (* Reference: global log *)
  (* Fast + airtime: per-node audible-transmission log — v's own and its
     neighbours' recent transmissions — so a jam check scans only candidates
     that could possibly match instead of folding the global log.  Laid out
     struct-of-arrays: ring buffers with unboxed time/sender rows and flat
     head/length arrays, so recording a transmission allocates nothing
     (amortised) instead of a boxed pair plus a Queue block per audible
     position. *)
  aud_time : float array array;
  aud_sender : int array array;
  aud_head : int array;
  aud_len : int array;
  rng : Slpdas_util.Rng.t;
  program : self:int -> ('s, 'm) Slpdas_gcn.program;
      (* kept so [revive_node] can boot a fresh instance for a crashed node *)
  instances : ('s, 'm) Slpdas_gcn.Instance.t array;
  queue : ('s, 'm) event Event_queue.t;
      (* Keyed (at, k1, k2).  Uncoupled engines push (0, push sequence
         number), i.e. same-time events pop in push order.  Coupled engines
         push a stable content-based key instead: [k1] is the global id of
         the node whose processing pushed the event (-1 for harness
         pushes), [k2] that node's own monotone push counter.  It depends
         only on *what* pushed the event, never on the global push
         schedule, so a coupled cell and the unsharded sequential engine
         order the same events identically.  Every key is distinct. *)
  timer_generations : (int * string, int) Hashtbl.t;  (* Reference *)
  (* Fast: timer generations as one flat int array of n × [gen_stride]
     slots, gens.((node * gen_stride) + Timer.id) — a single allocation
     sized once at [create] instead of an array per node.  The stride grows
     (all rows re-laid-out) in the rare case a program mints timer names
     mid-run. *)
  mutable gens : int array;
  mutable gen_stride : int;
  link_cache : link_cache;
  neighbours : int array array;  (* cached adjacency rows *)
  batch_deliveries : bool;
      (* Fast: fold each broadcast's arrivals into one batch event.  A win
         on large networks (fewer heap operations), but on small ones the
         inflated per-event work loses to the reference's singleton events,
         so below [default_batch_cutover] nodes the fast impl pushes
         singletons too — same draws, same order, same observables. *)
  scratch : int array;  (* delivered-recipient staging, max-degree sized *)
  scratch_keys : int array;  (* coupled batches: the recipients' k2 keys *)
  mutable now : float;
  mutable next_seq : int;
      (* push counter of the shared key lane: every push of an uncoupled
         engine (k1 = 0), the harness pushes of a coupled one (k1 = -1) *)
  subscribers : ('m Event.t -> unit) Queue.t;
  tally : Event.tally;
  broadcast_by_node : int array;
  mutable halted : bool;
  failed : bool array;
  link_overrides : (int * int, float) Hashtbl.t;
      (* fault layer: (min u v, max u v) → extra loss probability in (0, 1];
         1.0 is a hard link-down.  Applied on top of the base link model. *)
  mutable global_loss : float;
      (* fault layer: network-wide extra loss probability; 0 = inactive *)
  coupling : 'm coupling option;
  port_rx : float array;
      (* Fast + Gaussian + coupling: precomputed rx power for each boundary
         port, aligned with [ports_target]; same float expression as the
         local link cache, so cut-edge verdicts are bit-identical to the
         unsharded engine's. *)
  sseq : int array;  (* coupled: per-local-node push counters (the k2 lane) *)
  mutable cur_src : int;
      (* local id of the node whose effects are being applied; -1 when the
         harness (schedule/callback) is pushing *)
  mutable cur_k1 : int;  (* stable key of the event being processed *)
  mutable cur_k2 : int;
}

(* Observable node identity: a coupled engine reports global ids on the
   event bus while indexing instances/state by local id. *)
let gid t v = match t.coupling with None -> v | Some c -> c.global_ids.(v)

let arrival ~sender msg =
  { sender; msg; rx = Slpdas_gcn.Receive { sender; msg } }

let time t = t.now

let topology t = t.topology

let node_state t v = Slpdas_gcn.Instance.state t.instances.(v)

(* A Queue keeps registration O(1) while preserving registration order. *)
let subscribe t f = Queue.add f t.subscribers

let notify t ev = Queue.iter (fun f -> f ev) t.subscribers

let emit t ev =
  Event.record t.tally ev;
  notify t ev

(* The engine counts every event unconditionally (integer bumps); the event
   value itself is only allocated when someone is listening. *)
let listening t = not (Queue.is_empty t.subscribers)

let counters t = Event.snapshot t.tally

let broadcasts t = Event.tally_broadcasts t.tally

let broadcasts_by_node t = Array.copy t.broadcast_by_node

let deliveries t = Event.tally_deliveries t.tally

let stop t = t.halted <- true

let stopped t = t.halted

let node_failed t v =
  if v < 0 || v >= Array.length t.failed then
    invalid_arg "Engine.node_failed: node out of range";
  t.failed.(v)

(* ------------------------------------------------------------------ *)
(* Fault layer: link overrides and global loss                        *)
(* ------------------------------------------------------------------ *)

let clamp_unit p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

let link_key (u : int) v = if u <= v then (u, v) else (v, u)

let set_link_loss t ~a ~b loss =
  let n = Array.length t.failed in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Engine.set_link_loss: node out of range";
  let loss = clamp_unit loss in
  let lo, hi = link_key a b in
  if loss > 0.0 then Hashtbl.replace t.link_overrides (lo, hi) loss
  else Hashtbl.remove t.link_overrides (lo, hi);
  (* Local ids ascend with global ids, so (gid lo, gid hi) is still the
     canonical (min, max) rendering of the edge. *)
  emit t (Event.Link_changed { time = t.now; a = gid t lo; b = gid t hi; loss })

let set_global_loss t loss =
  let loss = clamp_unit loss in
  t.global_loss <- loss;
  emit t (Event.Link_changed { time = t.now; a = -1; b = -1; loss })

let faults_active t =
  t.global_loss > 0.0 || Hashtbl.length t.link_overrides > 0

(* Fault-layer delivery filter, consulted only when the base link model
   delivered and some override is active, so fault-free runs draw exactly
   the RNG sequence they always did.  Both impls call this per neighbour in
   adjacency order at broadcast time, which keeps Fast and Reference
   draw-identical under faults.  [Rng.bernoulli] consumes no randomness for
   degenerate probabilities, so a hard link-down (loss = 1) costs no draw,
   and an edge-override drop short-circuits the global draw in both impls
   alike. *)
let fault_dropped t rng u v =
  (match Hashtbl.find_opt t.link_overrides (link_key u v) with
  | Some p -> Slpdas_util.Rng.bernoulli rng p
  | None -> false)
  || (t.global_loss > 0.0 && Slpdas_util.Rng.bernoulli rng t.global_loss)

let push t ~at event =
  match t.coupling with
  | None ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Event_queue.push t.queue ~at ~k1:0 ~k2:seq event
  | Some c ->
    let src = t.cur_src in
    if src >= 0 then begin
      let s = t.sseq.(src) in
      t.sseq.(src) <- s + 1;
      Event_queue.push t.queue ~at ~k1:c.global_ids.(src) ~k2:s event
    end
    else begin
      let s = t.next_seq in
      t.next_seq <- s + 1;
      Event_queue.push t.queue ~at ~k1:(-1) ~k2:s event
    end

let schedule t ~at f =
  if at < t.now then invalid_arg "Engine.schedule: time is in the past";
  (* Harness pushes take the -1 key lane even when a node's callback-driven
     effects are on the stack, so keys depend only on who schedules. *)
  let prev = t.cur_src in
  t.cur_src <- -1;
  push t ~at (Callback f);
  t.cur_src <- prev

(* Reference timer bookkeeping: a string-keyed hashtable probe per
   operation, kept verbatim as the differential-testing baseline. *)
let ref_timer_generation t node timer =
  Option.value ~default:0
    (Hashtbl.find_opt t.timer_generations (node, Slpdas_gcn.Timer.name timer))

let ref_bump_timer_generation t node timer =
  let g = ref_timer_generation t node timer + 1 in
  Hashtbl.replace t.timer_generations (node, Slpdas_gcn.Timer.name timer) g;
  g

(* Fast timer bookkeeping: one flat array indexed by (node, interned timer
   id).  The stride starts sized to the intern registry and grows (amortised
   doubling, all rows re-laid-out) when a program mints timer names
   mid-run. *)
let fast_timer_generation t node id =
  if id < t.gen_stride then t.gens.((node * t.gen_stride) + id) else 0

let grow_gen_stride t want =
  let n = Array.length t.failed in
  let stride' = max want ((2 * t.gen_stride) + 1) in
  let gens' = Array.make (n * stride') 0 in
  for v = 0 to n - 1 do
    Array.blit t.gens (v * t.gen_stride) gens' (v * stride') t.gen_stride
  done;
  t.gens <- gens';
  t.gen_stride <- stride'

let fast_bump_timer_generation t node id =
  if id >= t.gen_stride then grow_gen_stride t (id + 1);
  let i = (node * t.gen_stride) + id in
  let g = t.gens.(i) + 1 in
  t.gens.(i) <- g;
  g

let timer_generation t node timer =
  match t.impl with
  | Fast -> fast_timer_generation t node (Slpdas_gcn.Timer.id timer)
  | Reference -> ref_timer_generation t node timer

let bump_timer_generation t node timer =
  match t.impl with
  | Fast -> fast_bump_timer_generation t node (Slpdas_gcn.Timer.id timer)
  | Reference -> ref_bump_timer_generation t node timer

let distance t u v =
  let x1, y1 = t.topology.Slpdas_wsn.Topology.positions.(u)
  and x2, y2 = t.topology.Slpdas_wsn.Topology.positions.(v) in
  sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

let prune_queue q ~horizon =
  let rec prune () =
    match Queue.peek_opt q with
    | Some (time, _) when time < horizon ->
      ignore (Queue.pop q);
      prune ()
    | Some _ | None -> ()
  in
  prune ()

(* Audible-log ring-buffer primitives (Fast + airtime). *)
let aud_push t v ~time ~sender =
  let cap = Array.length t.aud_time.(v) in
  if t.aud_len.(v) = cap then begin
    (* Grow and unroll the ring to offset 0. *)
    let cap' = 2 * cap in
    let ts = Array.make cap' 0.0 and ss = Array.make cap' 0 in
    let head = t.aud_head.(v) in
    for i = 0 to cap - 1 do
      let idx = (head + i) mod cap in
      ts.(i) <- t.aud_time.(v).(idx);
      ss.(i) <- t.aud_sender.(v).(idx)
    done;
    t.aud_time.(v) <- ts;
    t.aud_sender.(v) <- ss;
    t.aud_head.(v) <- 0
  end;
  let cap = Array.length t.aud_time.(v) in
  let idx = (t.aud_head.(v) + t.aud_len.(v)) mod cap in
  t.aud_time.(v).(idx) <- time;
  t.aud_sender.(v).(idx) <- sender;
  t.aud_len.(v) <- t.aud_len.(v) + 1

let aud_prune t v ~horizon =
  let cap = Array.length t.aud_time.(v) in
  while t.aud_len.(v) > 0 && t.aud_time.(v).(t.aud_head.(v)) < horizon do
    t.aud_head.(v) <- (t.aud_head.(v) + 1) mod cap;
    t.aud_len.(v) <- t.aud_len.(v) - 1
  done

(* With interference modelling on, remember recent transmissions and prune
   entries that can no longer overlap anything. *)
let record_broadcast t node =
  match t.airtime with
  | None -> ()
  | Some airtime ->
    let horizon = t.now -. airtime -. (4.0 *. propagation_delay) in
    (match t.impl with
    | Reference ->
      Queue.add (t.now, node) t.recent_broadcasts;
      prune_queue t.recent_broadcasts ~horizon
    | Fast ->
      (* Fan the entry out to every position it is audible at (the sender's
         own — radios are half-duplex — and each neighbour's). *)
      aud_push t node ~time:t.now ~sender:node;
      aud_prune t node ~horizon;
      Array.iter
        (fun v ->
          aud_push t v ~time:t.now ~sender:node;
          aud_prune t v ~horizon)
        t.neighbours.(node))

(* A reception at [node] arriving now, i.e. of a transmission sent at
   [tx_time = now - propagation_delay], is jammed when any other audible
   transmission overlaps it (half-duplex: the receiver's own transmissions
   jam too).  The fast path scans only the transmissions audible at [node]
   and early-exits on the first overlap; entries the reference path would
   already have pruned from its global log are at least
   [airtime + 3·propagation_delay] older than any [tx_time] checked after
   them, so a lazily-pruned per-node queue never flips a verdict. *)
let jammed t ~node ~sender =
  match t.airtime with
  | None -> false
  | Some airtime -> (
    let tx_time = t.now -. propagation_delay in
    match t.impl with
    | Reference ->
      let graph = t.topology.Slpdas_wsn.Topology.graph in
      Queue.fold
        (fun acc (time, other) ->
          acc
          || (other <> sender
             && abs_float (time -. tx_time) < airtime
             && (other = node || Slpdas_wsn.Graph.mem_edge graph node other)))
        false t.recent_broadcasts
    | Fast ->
      let times = t.aud_time.(node) and senders = t.aud_sender.(node) in
      let cap = Array.length times in
      let head = t.aud_head.(node) and len = t.aud_len.(node) in
      let rec scan i =
        i < len
        &&
        let idx = (head + i) mod cap in
        (senders.(idx) <> sender
        && abs_float (times.(idx) -. tx_time) < airtime)
        || scan (i + 1)
      in
      scan 0)

(* Fast base verdict for [node]'s [i]-th local neighbour from the link
   cache: at most one draw from [rng] and one compare. *)
let[@inline] cached_delivered t rng node i =
  match t.link_cache with
  | Always_delivered -> true
  | Never_delivered -> false
  | Bernoulli_loss p -> not (Slpdas_util.Rng.bernoulli rng p)
  | Gaussian_rx { noise_mean; noise_std; snr_threshold; off; rx_power } ->
    let noise = Slpdas_util.Rng.gaussian rng ~mean:noise_mean ~std:noise_std in
    Array.unsafe_get rx_power (Array.unsafe_get off node + i) -. noise
    >= snr_threshold

(* A link-level drop of [sender]'s transmission at [node] (both observable
   ids), counted at broadcast time. *)
let drop_link t ~node ~sender =
  Event.count_drop t.tally ~collision:false ~time:t.now;
  if listening t then
    notify t (Event.Drop { time = t.now; node; sender; collision = false })

let rec apply_effects t node effects =
  match effects with
  | [] -> ()
  | _ :: _ ->
    (* Every push below is attributed to [node]'s key lane; restored on
       exit so harness callbacks resume pushing on the -1 lane. *)
    let prev_src = t.cur_src in
    t.cur_src <- node;
    apply_list t node effects;
    t.cur_src <- prev_src

and apply_list t node = function
  | [] -> ()
  | effect_ :: rest ->
    apply_effect t node effect_;
    apply_list t node rest

and apply_effect t node (effect_ : 'm Slpdas_gcn.effect_) =
  match effect_ with
  | Slpdas_gcn.Broadcast msg -> (
    Event.count_broadcast t.tally ~time:t.now;
    t.broadcast_by_node.(node) <- t.broadcast_by_node.(node) + 1;
    record_broadcast t node;
    if listening t then
      notify t (Event.Broadcast { time = t.now; sender = gid t node; msg });
    let faults = faults_active t in
    match t.coupling with
    | Some c -> coupled_broadcast t c node msg ~faults
    | None -> (
      let a = arrival ~sender:node msg in
      match t.impl with
      | Reference ->
        Array.iter
          (fun v ->
            if
              Link_model.delivered t.link t.rng ~distance_m:(distance t node v)
              && not (faults && fault_dropped t t.rng node v)
            then
              push t
                ~at:(t.now +. propagation_delay)
                (Deliver { node = v; arrival = a })
            else drop_link t ~node:v ~sender:node)
          (Slpdas_wsn.Graph.neighbours t.topology.Slpdas_wsn.Topology.graph
             node)
      | Fast -> fast_broadcast t node a ~faults))
  | Slpdas_gcn.Set_timer { timer; after } ->
    let generation = bump_timer_generation t node timer in
    push t ~at:(t.now +. after) (Timer_fire { node; timer; generation })
  | Slpdas_gcn.Set_timer_at { timer; at } ->
    if at < t.now then
      invalid_arg "Engine: Set_timer_at before the current time";
    let generation = bump_timer_generation t node timer in
    push t ~at (Timer_fire { node; timer; generation })
  | Slpdas_gcn.Stop_timer timer -> ignore (bump_timer_generation t node timer)

(* Uncoupled Fast fan-out.  RNG draws happen here, eagerly, in adjacency
   order — exactly the reference draw sequence — and drops are counted at
   broadcast time like the reference path.  Only the delivery *arrivals*
   are deferred; above the batch cutover as one batch event, below it as
   singleton events pushed in the reference's own order (so small runs skip
   the batch-expansion overhead). *)
and fast_broadcast t node a ~faults =
  let nbrs = t.neighbours.(node) in
  let deg = Array.length nbrs in
  let batch = t.batch_deliveries in
  let count = ref 0 in
  (match t.link_cache with
  | Always_delivered when (not faults) && batch ->
    Array.blit nbrs 0 t.scratch 0 deg;
    count := deg
  | _ ->
    for i = 0 to deg - 1 do
      let v = Array.unsafe_get nbrs i in
      (* The fault layer runs after the base verdict, mirroring the
         reference path's [&&] (same conditional draws, same order). *)
      if
        (not (cached_delivered t t.rng node i))
        || (faults && fault_dropped t t.rng node v)
      then drop_link t ~node:v ~sender:node
      else if batch then begin
        Array.unsafe_set t.scratch !count v;
        incr count
      end
      else
        push t
          ~at:(t.now +. propagation_delay)
          (Deliver { node = v; arrival = a })
    done);
  if batch && !count > 0 then
    push t
      ~at:(t.now +. propagation_delay)
      (Deliver_batch
         {
           arrival = a;
           recipients = Array.sub t.scratch 0 !count;
           keys = [||];
         })

(* Coupled broadcast: walk the sender's local neighbours and boundary ports
   merged back into global-adjacency-row order ([ports_pos] marks the slots
   ports occupy; local neighbours, whose ascending local ids ascend globally
   too, fill the rest in order).  Every verdict draws from the sender's own
   lane, so the draw sequence is exactly the one the unsharded engine makes
   for this node's full row — whatever other cells are doing.  Above the
   batch cutover, local deliveries are staged with the k2 each would have
   been pushed under and leave as one [Deliver_batch] keyed by the first;
   [expand_keyed] replays them in key order.  Cut-edge deliveries always
   leave one by one through [send]. *)
and coupled_broadcast t c node msg ~faults =
  let lane = c.lanes.(node) in
  let gnode = c.global_ids.(node) in
  let nbrs = t.neighbours.(node) in
  let batch = t.batch_deliveries in
  let count = ref 0 in
  let p_lo = c.ports_off.(node) and p_hi = c.ports_off.(node + 1) in
  let total = Array.length nbrs + (p_hi - p_lo) in
  let at = t.now +. propagation_delay in
  let x1, y1 = t.topology.Slpdas_wsn.Topology.positions.(node) in
  let a = arrival ~sender:gnode msg in
  let li = ref 0 and pi = ref p_lo in
  for pos = 0 to total - 1 do
    if !pi < p_hi && Array.unsafe_get c.ports_pos !pi = pos then begin
      (* Cut neighbour. *)
      let i = !pi in
      incr pi;
      let target = Array.unsafe_get c.ports_target i in
      let delivered =
        match t.impl with
        | Reference ->
          Link_model.delivered t.link lane
            ~distance_m:
              (sqrt
                 (((x1 -. c.ports_x.(i)) ** 2.0)
                 +. ((y1 -. c.ports_y.(i)) ** 2.0)))
        | Fast -> (
          match t.link_cache with
          | Always_delivered -> true
          | Never_delivered -> false
          | Bernoulli_loss p -> not (Slpdas_util.Rng.bernoulli lane p)
          | Gaussian_rx { noise_mean; noise_std; snr_threshold; _ } ->
            let noise =
              Slpdas_util.Rng.gaussian lane ~mean:noise_mean ~std:noise_std
            in
            Array.unsafe_get t.port_rx i -. noise >= snr_threshold)
      in
      if not delivered then drop_link t ~node:target ~sender:gnode
      else if
        (* Cut-edge link overrides are unsupported (Shard validates before a
           coupled run); only the network-wide loss floor applies, drawn
           from the sender's lane exactly as the unsharded engine draws it
           when no per-edge override matches. *)
        faults
        && t.global_loss > 0.0
        && Slpdas_util.Rng.bernoulli lane t.global_loss
      then drop_link t ~node:target ~sender:gnode
      else begin
        (* The counter bump keeps this node's k2 numbering aligned with the
           unsharded engine, where this delivery is a local push. *)
        let s = t.sseq.(node) in
        t.sseq.(node) <- s + 1;
        c.send ~at ~src:gnode ~sseq:s ~target ~msg
      end
    end
    else begin
      let l = !li in
      incr li;
      let v = Array.unsafe_get nbrs l in
      let delivered =
        match t.impl with
        | Reference ->
          Link_model.delivered t.link lane ~distance_m:(distance t node v)
        | Fast -> cached_delivered t lane node l
      in
      if (not delivered) || (faults && fault_dropped t lane node v) then
        drop_link t ~node:c.global_ids.(v) ~sender:gnode
      else if batch then begin
        (* Same counter bump [push] would make for a singleton. *)
        let s = t.sseq.(node) in
        t.sseq.(node) <- s + 1;
        Array.unsafe_set t.scratch !count v;
        Array.unsafe_set t.scratch_keys !count s;
        incr count
      end
      else push t ~at (Deliver { node = v; arrival = a })
    end
  done;
  if !count > 0 then
    Event_queue.push t.queue ~at ~k1:gnode ~k2:t.scratch_keys.(0)
      (Deliver_batch
         {
           arrival = a;
           recipients = Array.sub t.scratch 0 !count;
           keys = Array.sub t.scratch_keys 0 !count;
         })

and inject t ~node trigger =
  (* Crash-stop failures: a failed node neither processes triggers nor emits
     effects. *)
  if not t.failed.(node) then begin
    let effects =
      Slpdas_gcn.Instance.deliver t.instances.(node) ~now:t.now trigger
    in
    apply_effects t node effects
  end

let fail_node t v =
  if v < 0 || v >= Array.length t.failed then
    invalid_arg "Engine.fail_node: node out of range";
  if not t.failed.(v) then begin
    t.failed.(v) <- true;
    (* Cancel every pending timer of the node by bumping its generations.
       The fires would be swallowed by the [inject] failure guard anyway,
       but cancelling keeps them out of the event counts and lets the queue
       drain.  A bump never un-stales a pending fire (generations only
       grow), so Fast and Reference — whose stored generation values may
       differ for timers the node never armed — still agree on every
       staleness verdict. *)
    (match t.impl with
    | Fast ->
      let base = v * t.gen_stride in
      for i = base to base + t.gen_stride - 1 do
        t.gens.(i) <- t.gens.(i) + 1
      done
    | Reference ->
      Hashtbl.filter_map_inplace
        (fun (node, _) g -> if node = v then Some (g + 1) else Some g)
        t.timer_generations);
    emit t (Event.Node_failed { time = t.now; node = gid t v })
  end

let revive_node t v =
  if v < 0 || v >= Array.length t.failed then
    invalid_arg "Engine.revive_node: node out of range";
  if t.failed.(v) then begin
    t.failed.(v) <- false;
    (* The node rejoins as a fresh boot: crash-stop wiped its volatile
       state, so a brand-new instance runs [init] (and its spontaneous
       fixpoint) at the current time.  In-flight deliveries queued before
       the crash reach the fresh instance — identically in both impls. *)
    let self = gid t v in
    let instance, effects =
      Slpdas_gcn.Instance.create (t.program ~self) ~self ~now:t.now
    in
    t.instances.(v) <- instance;
    emit t (Event.Node_revived { time = t.now; node = self });
    apply_effects t v effects
  end

let build_link_cache ~impl ~topology ~link ~neighbours =
  match impl with
  | Reference -> Always_delivered (* unused *)
  | Fast -> (
    match Link_model.prepare link with
    | Link_model.Static true -> Always_delivered
    | Link_model.Static false -> Never_delivered
    | Link_model.Bernoulli p -> Bernoulli_loss p
    | Link_model.Snr { noise_mean_dbm; noise_std_dbm; snr_threshold_db; rx_power_dbm }
      ->
      let positions = topology.Slpdas_wsn.Topology.positions in
      let n = Array.length neighbours in
      let off = Array.make (n + 1) 0 in
      for u = 0 to n - 1 do
        off.(u + 1) <- off.(u) + Array.length neighbours.(u)
      done;
      let rx_power = Array.make off.(n) 0.0 in
      Array.iteri
        (fun u row ->
          let x1, y1 = positions.(u) in
          let base = off.(u) in
          Array.iteri
            (fun i v ->
              (* Evaluated once per directed edge instead of once per
                 reception; the distance expression matches [distance]. *)
              let x2, y2 = positions.(v) in
              let distance_m =
                sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))
              in
              rx_power.(base + i) <- rx_power_dbm ~distance_m)
            row)
        neighbours;
      Gaussian_rx
        {
          noise_mean = noise_mean_dbm;
          noise_std = noise_std_dbm;
          snr_threshold = snr_threshold_db;
          off;
          rx_power;
        })

(* Below this node count the fast impl pushes singleton delivery events
   (reference order); above it, one batch event per broadcast.  Chosen so
   the paper-scale grids (11x11 … 21x21) take the lighter small-run path
   while anything approaching the ROADMAP's large deployments batches. *)
let default_batch_cutover = 1024

let create ?(impl = Fast) ?(batch_cutover = default_batch_cutover) ?airtime
    ?coupling ~topology ~link ~rng ~program () =
  let graph = topology.Slpdas_wsn.Topology.graph in
  let n = Slpdas_wsn.Graph.n graph in
  (match (coupling, airtime) with
  | Some _, Some _ ->
    invalid_arg
      "Engine.create: coupling is incompatible with airtime interference (a \
       transmission jams same-timestamp receptions across the cell boundary, \
       so the conservative lookahead window would be zero)"
  | _ -> ());
  (match coupling with
  | None -> ()
  | Some c ->
    if Array.length c.global_ids <> n then
      invalid_arg "Engine.create: coupling.global_ids must cover every node";
    if Array.length c.lanes <> n then
      invalid_arg "Engine.create: coupling.lanes must cover every node";
    if Array.length c.ports_off <> n + 1 then
      invalid_arg "Engine.create: coupling.ports_off must have n + 1 offsets");
  let queue = Event_queue.create () in
  let self_of v =
    match coupling with None -> v | Some c -> c.global_ids.(v)
  in
  let boot =
    Array.init n (fun v ->
        let self = self_of v in
        Slpdas_gcn.Instance.create (program ~self) ~self ~now:0.0)
  in
  (* Cut-edge rx powers for the Fast Gaussian path, computed with the same
     float expression as the local link cache so boundary verdicts match the
     unsharded engine's bit-for-bit. *)
  let port_rx =
    match (impl, coupling) with
    | Fast, Some c -> (
      match Link_model.prepare link with
      | Link_model.Static _ | Link_model.Bernoulli _ -> [||]
      | Link_model.Snr { rx_power_dbm; _ } ->
        let positions = topology.Slpdas_wsn.Topology.positions in
        let pr = Array.make (Array.length c.ports_target) 0.0 in
        for u = 0 to n - 1 do
          let x1, y1 = positions.(u) in
          for i = c.ports_off.(u) to c.ports_off.(u + 1) - 1 do
            pr.(i) <-
              rx_power_dbm
                ~distance_m:
                  (sqrt
                     (((x1 -. c.ports_x.(i)) ** 2.0)
                     +. ((y1 -. c.ports_y.(i)) ** 2.0)))
          done
        done;
        pr)
    | _ -> [||]
  in
  let neighbours = Array.init n (Slpdas_wsn.Graph.neighbours graph) in
  let max_degree =
    Array.fold_left (fun acc row -> max acc (Array.length row)) 0 neighbours
  in
  let timer_slots = max 1 (Slpdas_gcn.Timer.count ()) in
  let fast_airtime =
    match (impl, airtime) with Fast, Some _ -> true | _ -> false
  in
  let t =
    {
      topology;
      link;
      impl;
      airtime;
      recent_broadcasts = Queue.create ();
      aud_time =
        (if fast_airtime then Array.init n (fun _ -> Array.make 8 0.0)
         else [||]);
      aud_sender =
        (if fast_airtime then Array.init n (fun _ -> Array.make 8 0) else [||]);
      aud_head = (if fast_airtime then Array.make n 0 else [||]);
      aud_len = (if fast_airtime then Array.make n 0 else [||]);
      rng;
      program;
      instances = Array.map fst boot;
      queue;
      timer_generations =
        (* Reference-oracle bookkeeping only; Fast uses the flat gens rows.
           (* slp-lint: allow hot-path-hashtbl *) *)
        Hashtbl.create (match impl with Reference -> 4 * n | Fast -> 1);
      gens =
        (match impl with
        | Fast -> Array.make (n * timer_slots) 0
        | Reference -> [||]);
      gen_stride = (match impl with Fast -> timer_slots | Reference -> 0);
      link_cache = build_link_cache ~impl ~topology ~link ~neighbours;
      neighbours;
      batch_deliveries =
        (* Coupled engines batch too: a coupled batch carries every
           recipient's stable key, so it expands exactly where its singleton
           events would have popped (see [expand_keyed]). *)
        (match impl with Fast -> n > batch_cutover | Reference -> false);
      scratch = Array.make max_degree 0;
      scratch_keys =
        (match coupling with
        | Some _ -> Array.make max_degree 0
        | None -> [||]);
      now = 0.0;
      next_seq = 0;
      subscribers = Queue.create ();
      tally = Event.tally_create ();
      broadcast_by_node = Array.make n 0;
      halted = false;
      failed = Array.make n false;
      link_overrides =
        (* Sparse fault-layer table, consulted only while overrides are
           active.  (* slp-lint: allow hot-path-hashtbl *) *)
        Hashtbl.create 8;
      global_loss = 0.0;
      coupling;
      port_rx;
      sseq = (match coupling with Some _ -> Array.make n 0 | None -> [||]);
      cur_src = -1;
      cur_k1 = -1;
      cur_k2 = -1;
    }
  in
  Array.iteri
    (fun v (_, effects) ->
      (* Boot emissions are observed under the boot key (global id, -1) —
         the same key whatever order cells boot their nodes in.  (Pushes
         made during boot take the node's own sseq lane via [push].) *)
      t.cur_k1 <- self_of v;
      t.cur_k2 <- -1;
      apply_effects t v effects)
    boot;
  t.cur_k1 <- -1;
  t.cur_k2 <- -1;
  t

(* [a.sender] is already an observable id: global ids are stored in
   arrivals at push time under coupling, local (= global) ids otherwise. *)
let deliver_one t ~node a =
  let sender = a.sender in
  if jammed t ~node ~sender then begin
    Event.count_drop t.tally ~collision:true ~time:t.now;
    if listening t then
      notify t
        (Event.Drop
           { time = t.now; node = gid t node; sender; collision = true })
  end
  else begin
    Event.count_delivery t.tally ~time:t.now;
    if listening t then
      notify t
        (Event.Delivery
           { time = t.now; node = gid t node; sender; msg = a.msg });
    inject t ~node a.rx
  end

(* Pop the minimum event, whose time [at] the caller has just read, and
   process it under its key. *)
let rec pop_process t at =
  let q = t.queue in
  t.now <- at;
  t.cur_k1 <- Event_queue.min_k1 q;
  t.cur_k2 <- Event_queue.min_k2 q;
  match Event_queue.pop q with
  | Timer_fire { node; timer; generation } ->
    (* Stale fires (superseded by a later Set/Stop_timer) are dropped
       silently: they never reach the node, so they are not events. *)
    if generation = timer_generation t node timer then begin
      Event.count_timer_fire t.tally ~time:t.now;
      if listening t then
        notify t
          (Event.Timer_fire
             {
               time = t.now;
               node = gid t node;
               timer = Slpdas_gcn.Timer.name timer;
             });
      inject t ~node (Slpdas_gcn.Timeout timer)
    end
  | Deliver { node; arrival } -> deliver_one t ~node arrival
  | Deliver_batch { arrival; recipients; keys = [||] } ->
    (* Expand in push (= adjacency) order.  [halted] is re-checked between
       recipients because the reference impl's singleton events would stop
       being popped as soon as a subscriber called [stop]. *)
    let k = Array.length recipients in
    let i = ref 0 in
    while (not t.halted) && !i < k do
      deliver_one t ~node:recipients.(!i) arrival;
      incr i
    done
  | Deliver_batch { arrival; recipients; keys } ->
    expand_keyed t arrival ~recipients ~keys
  | Callback f -> f t

(* Coupled batch expansion.  The singleton events this batch replaces would
   have popped back to back: no event already queued has a key between
   theirs, because within one engine every (k1 = sender, k2 in the batch's
   range) key belongs to this batch.  Only an event pushed while the batch
   expands can cut in — a zero-delay timer or a harness [schedule ~at:now]
   keyed below the next recipient.  So before each recipient after the
   first, peek the queue; if it holds such an event (or the engine halted,
   which leaves the singletons queued), re-queue the rest of the batch
   under the next recipient's key and stop.  [cur_k2] follows the
   recipients so [processing_key] reads what the singletons gave. *)
and expand_keyed t arrival ~recipients ~keys =
  let at = t.now and k1 = t.cur_k1 in
  let k = Array.length recipients in
  let i = ref 0 in
  while !i < k do
    let k2 = keys.(!i) in
    if !i > 0 && (t.halted || Event_queue.min_before t.queue ~at ~k1 ~k2)
    then begin
      Event_queue.push t.queue ~at ~k1 ~k2
        (Deliver_batch
           {
             arrival;
             recipients = Array.sub recipients !i (k - !i);
             keys = Array.sub keys !i (k - !i);
           });
      i := k
    end
    else begin
      t.cur_k2 <- k2;
      deliver_one t ~node:recipients.(!i) arrival;
      incr i
    end
  done

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    pop_process t (Event_queue.min_at t.queue);
    true
  end

let rec run_until t deadline =
  let q = t.queue in
  if t.halted then ()
  else if Event_queue.is_empty q then t.now <- max t.now deadline
  else begin
    let at = Event_queue.min_at q in
    if at <= deadline then begin
      pop_process t at;
      run_until t deadline
    end
    else t.now <- max t.now deadline
  end

(* ------------------------------------------------------------------ *)
(* Conservative-window driving surface (coupled sharding)             *)
(* ------------------------------------------------------------------ *)

let next_event_time t =
  if Event_queue.is_empty t.queue then None
  else Some (Event_queue.min_at t.queue)

let rec run_window t ~stop_before ~deadline =
  let q = t.queue in
  if t.halted || Event_queue.is_empty q then ()
  else begin
    let at = Event_queue.min_at q in
    if at < stop_before && at <= deadline then begin
      pop_process t at;
      run_window t ~stop_before ~deadline
    end
  end

let advance_to t time = if not t.halted then t.now <- max t.now time

let ingest_delivery t ~at ~src ~sseq ~node ~msg =
  (match t.coupling with
  | None -> invalid_arg "Engine.ingest_delivery: engine is not coupled"
  | Some _ -> ());
  if node < 0 || node >= Array.length t.failed then
    invalid_arg "Engine.ingest_delivery: node out of range";
  (* The key its sender's cell assigned: the key the unsharded engine
     assigns to the same push. *)
  Event_queue.push t.queue ~at ~k1:src ~k2:sseq
    (Deliver { node; arrival = arrival ~sender:src msg })

let processing_key t = (t.cur_k1, t.cur_k2)
