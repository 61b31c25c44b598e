module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type mode = Protectionless | Slp

type config = {
  mode : mode;
  sink : int;
  num_slots : int;
  slot_period : float;
  dissemination_period : float;
  neighbour_discovery_periods : int;
  minimum_setup_periods : int;
  dissemination_timeout : int;
  search_distance : int;
  change_length : int;
  refine_gap : int;
  search_start_period : int;
  run_seed : int;
  data_sources : int list;
  reliable_data : bool;
}

let period_length c = float_of_int c.num_slots *. c.slot_period

let das_start c = float_of_int c.neighbour_discovery_periods *. period_length c

let normal_start c = float_of_int c.minimum_setup_periods *. period_length c

(* Number of dissemination rounds between the start of Phase 1 and normal
   operation. *)
let setup_rounds c =
  int_of_float (ceil ((normal_start c -. das_start c) /. c.dissemination_period))

(* Rounds during which self-repair enforces the strong DAS bound: up to the
   period at which the sink launches Phase 2. *)
let strong_repair_rounds c =
  let span =
    (float_of_int c.search_start_period *. period_length c) -. das_start c
  in
  int_of_float (ceil (span /. c.dissemination_period))

(* Position of a node's periodic [dissem] or [process] timer chain: the
   index of the chain's next round and the absolute time it fires at.  When
   [armed] is false the chain is parked — the last round was a no-op, so no
   timer is pending — and it resumes from this position (see
   [resume_chain]). *)
type chain = { round : int; at : float; armed : bool }

type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : Int_set.t;
  npar : Int_set.t;
  children : Int_set.t;
  others : Int_set.t Int_map.t;
  ninfo : Messages.ninfo Int_map.t;
  unassigned_seen : Int_set.t;
  hop : int option;
  parent : int option;
  slot : int option;
  normal : bool;
  dissem_budget : int;
  last_sent : Messages.t option;
  dissem : chain;
  process : chain;
  search_sent : bool;
  from_ : Int_set.t;
  start_node : bool;
  pr : int;
  hello_remaining : int;
  data_seq : int;
  period_index : int;
  pending_readings : (int * int) list;
      (** readings collected since our last transmission, newest first *)
  awaiting_ack : (int * int) list;
      (** reliable mode: readings transmitted but not yet overheard in the
          parent's aggregate *)
  delivered : (int * int * int) list;
      (** sink only: (source, generation period, arrival period) *)
}

let slot_of_state s = s.slot

module Timer = struct
  let hello = Slpdas_gcn.Timer.intern "hello"
  let dissem = Slpdas_gcn.Timer.intern "dissem"
  let process = Slpdas_gcn.Timer.intern "process"
  let search = Slpdas_gcn.Timer.intern "search"
  let period = Slpdas_gcn.Timer.intern "period"
  let tx = Slpdas_gcn.Timer.intern "tx"
end

(* Per-node, per-round dissemination jitter: staggers the round's broadcasts
   so they do not all hit the channel at the same instant (needed when the
   engine models transmission airtime; harmless otherwise).  Derived from a
   stateless hash so it does not perturb the per-node random streams. *)
let dissem_jitter c ~node ~round =
  let r =
    Slpdas_util.Rng.create
      ((c.run_seed * 31) lxor (node * 2_097_593) lxor (round * 613))
  in
  Slpdas_util.Rng.float r (0.3 *. c.dissemination_period)

(* Gap between dissemination rounds [round] and [round + 1], so that
   successive fires land on das_start + r·Pdiss + jitter(r).  Chain times
   accumulate these gaps with [+.] exactly as the engine adds a
   [Set_timer]'s [after] to its current time. *)
let dissem_step c ~node ~round =
  c.dissemination_period
  -. dissem_jitter c ~node ~round
  +. dissem_jitter c ~node ~round:(round + 1)

let process_step c ~node:_ ~round:_ = c.dissemination_period

(* Boot-relative time of each chain's round 0; the process action runs at
   80% of each dissemination round. *)
let dissem_boot c ~node = das_start c +. dissem_jitter c ~node ~round:0

let process_boot c = das_start c +. (c.dissemination_period *. 0.8)

(* Run-salted deterministic hash: gives every (parent, child) pair a
   pseudo-random rank key that all siblings compute identically, standing in
   for the arrival-order noise that randomises ranks in the paper's TOSSIM
   runs. *)
let rank_key ~seed ~parent ~node =
  let r =
    Slpdas_util.Rng.create
      ((seed * 1_000_003) lxor (parent * 8191) lxor (node * 131))
  in
  Int64.to_int (Int64.logand (Slpdas_util.Rng.bits64 r) 0x3FFFFFFFFFFFFFFFL)

let ninfo_slot s v =
  match Int_map.find_opt v s.ninfo with
  | Some { Messages.slot; _ } -> Some slot
  | None -> None

let ninfo_hop s v =
  match Int_map.find_opt v s.ninfo with
  | Some { Messages.hop; _ } -> Some hop
  | None -> None

(* min{Ninfo[j].slot | j ∈ myN} ∪ {slot}: the neighbourhood slot floor used
   by Phase 3 (Figs. 3–4). *)
let neighbourhood_min_slot s =
  let candidates =
    Int_set.fold
      (fun v acc -> match ninfo_slot s v with Some x -> x :: acc | None -> acc)
      s.neighbours
      (match s.slot with Some x -> [ x ] | None -> [])
  in
  match candidates with
  | [] -> None
  | x :: rest -> Some (List.fold_left min x rest)

(* Monotone merge of received Ninfo: slots only ever decrease in this
   protocol (collision resolution, updates, refinement), so "lowest slot
   wins" keeps the freshest view; hop is set once by the owner.

   The one exception is the sender's entry about *itself*: that is the
   owner's current announcement, so it replaces ours outright.  In the
   fault-free run the two rules coincide (owners never raise a slot and
   never change their hop), but orphan repair re-anchors nodes onto new
   parents, changing their hop and re-assigning their slot.  Folding such
   an owner announcement through the monotone rule would keep the stale
   hop, and inconsistent hop views are what feed the strong-repair rule
   ("stay below every hop-1-closer neighbour") cyclic "closer" relations —
   two nodes each believing the other closer chase each other's slots down
   without bound.  With owner-consistent hops any such cycle needs
   h(a) < h(b) < ... < h(a), which is impossible. *)
let merge_info s ~sender info =
  List.fold_left
    (fun (ninfo, unassigned) (v, entry) ->
      match entry with
      | None -> (ninfo, Int_set.add v unassigned)
      | Some (incoming : Messages.ninfo) ->
        let merged =
          if v = sender then incoming
          else
            match Int_map.find_opt v ninfo with
            | None -> incoming
            | Some existing ->
              { existing with Messages.slot = min existing.Messages.slot incoming.Messages.slot }
        in
        (Int_map.add v merged ninfo, unassigned))
    (s.ninfo, s.unassigned_seen)
    info

let set_self_info ~self s =
  match (s.hop, s.slot) with
  | Some hop, Some slot ->
    { s with ninfo = Int_map.add self { Messages.hop; slot } s.ninfo }
  | Some hop, None when self = s.config.sink ->
    {
      s with
      ninfo = Int_map.add self { Messages.hop; slot = s.config.num_slots } s.ninfo;
    }
  | _ -> s

(* ------------------------------------------------------------------ *)
(* Dissemination payload                                              *)
(* ------------------------------------------------------------------ *)

let dissem_payload ~self s =
  let entries =
    List.map
      (fun v -> (v, Int_map.find_opt v s.ninfo))
      (Int_set.elements s.neighbours)
  in
  let self_entry = (self, Int_map.find_opt self s.ninfo) in
  Messages.Dissem { normal = s.normal; info = entries @ [ self_entry ]; parent = s.parent }

(* ------------------------------------------------------------------ *)
(* Receive handlers                                                   *)
(* ------------------------------------------------------------------ *)

let on_hello ~self:_ s ~sender =
  { s with neighbours = Int_set.add sender s.neighbours }

let common_dissem_update ~self s ~sender ~info ~sender_parent =
  let s = { s with neighbours = Int_set.add sender s.neighbours } in
  let children =
    if sender_parent = Some self then Int_set.add sender s.children
    else if sender_parent <> None then Int_set.remove sender s.children
    else s.children
  in
  let ninfo, unassigned_seen = merge_info s ~sender info in
  (* A sender advertising *itself* as ⊥ has dropped its assignment (orphan
     repair; see [on_neighbour_down]).  The monotone merge above cannot
     express that — slots only ever decrease — so trust the owner and purge
     our stale record: its old slot must not seed [choose_parent_and_slot]
     again, and the payload change this causes is what re-arms our own
     dissemination budget so converged nodes answer the orphan's ⊥
     announcement.  Third-party [None] entries (neighbours the sender merely
     has not heard from) are still only recorded in [unassigned_seen]. *)
  let sender_unassigned =
    List.exists (fun (v, e) -> v = sender && e = None) info
  in
  let ninfo = if sender_unassigned then Int_map.remove sender ninfo else ninfo in
  let npar = if sender_unassigned then Int_set.remove sender s.npar else s.npar in
  { s with children; ninfo; unassigned_seen; npar }

(* Record an assigned sender as a potential parent, together with the
   competitor set its payload reveals (the [Others] map that later decides
   our rank, hence our collision-free slot).  Never a child: re-parenting
   onto one's own convergecast child is a cycle.  In the fault-free run the
   guard is vacuous — an unassigned node cannot have children because no
   neighbour adopts a slotless parent — but during orphan repair our
   children do re-disseminate while we are slotless. *)
let record_candidate s ~sender ~info =
  let competitors =
    List.filter_map (fun (v, e) -> if e = None then Some v else None) info
  in
  let others =
    let existing =
      Option.value ~default:Int_set.empty (Int_map.find_opt sender s.others)
    in
    Int_map.add sender
      (List.fold_left (fun acc v -> Int_set.add v acc) existing competitors)
      s.others
  in
  { s with npar = Int_set.add sender s.npar; others }

let sender_assigned_in ~sender info =
  List.exists (fun (v, e) -> v = sender && e <> None) info

(* receiveN of Fig. 2: a normal dissemination. *)
let on_dissem_normal ~self s ~sender ~info ~sender_parent =
  let s =
    if
      s.slot = None
      && sender_assigned_in ~sender info
      && not (Int_set.mem sender s.children)
    then record_candidate s ~sender ~info
    else s
  in
  common_dissem_update ~self s ~sender ~info ~sender_parent

(* Weak-DAS check from local knowledge: does some neighbour (or the sink)
   transmit later than us?  While it does, our data still makes progress and
   no repair is needed (Def. 3). *)
let has_forwarder ~self:_ s ~mine =
  Int_set.exists
    (fun m ->
      m = s.config.sink
      || match ninfo_slot s m with Some ms -> ms > mine | None -> false)
    s.neighbours

(* receiveU of Fig. 2: an update dissemination from the parent re-lowers our
   slot and cascades the update phase — but only when the change actually
   broke the (weak) DAS property for us.  An unconditional below-parent
   cascade would re-create a descending gradient under every decoy node of
   Phase 3 and escort the attacker onwards, defeating the redirection the
   update is meant to protect. *)
let on_dissem_update ~self s ~sender ~info ~sender_parent =
  let s = common_dissem_update ~self s ~sender ~info ~sender_parent in
  (* During orphan repair ([slot = None] while in update mode, a state the
     fault-free protocol never reaches) the neighbours we can re-anchor to
     mostly announce themselves through *update* disseminations — they are
     repairing too.  receiveN's potential-parent recording would miss them,
     so replicate it here.  [s.children] is already refreshed by
     [common_dissem_update], so a released child that re-anchored elsewhere
     (its [parent] points away from us) is admissible again. *)
  let s =
    if
      s.slot = None && (not s.normal)
      && self <> s.config.sink
      && sender_assigned_in ~sender info
      && (not (Int_set.mem sender s.children))
      && sender_parent <> Some self
    then record_candidate s ~sender ~info
    else s
  in
  let sender_slot =
    List.find_map
      (fun (v, e) ->
        if v = sender then Option.map (fun n -> n.Messages.slot) e else None)
      info
  in
  match (s.parent, s.slot, sender_slot) with
  | Some p, Some mine, Some ps
    when p = sender && mine >= ps && not (has_forwarder ~self s ~mine) ->
    let s = { s with slot = Some (ps - 1); normal = false } in
    let s = set_self_info ~self s in
    { s with dissem_budget = s.config.dissemination_timeout }
  | _ -> s

(* receiveF: the failure detector reports a crashed neighbour.  The paper
   assumes TOSSIM's static neighbourhoods; here an idealised link-layer
   detector (driven by the fault injector, [Slpdas_fault.Injector]) tells
   each surviving neighbour of a crash-stop after a detection delay.  The
   reaction is a pure purge: forget everything known about the dead node,
   and if it was our parent, drop our own assignment and re-enter Phase-1
   provisioning — the next process round re-parents us through
   [choose_parent_and_slot] among the surviving potential parents, and the
   resulting update dissemination cascades the repair to our children
   (receiveU).  Slots never rise, so the monotone-merge invariant holds. *)
(* Drop our assignment and re-enter Phase-1 provisioning.  The shared tail
   of losing a parent to a crash (receiveF below) and being detached by a
   [Release] token (receiveR).  Dropping the self Ninfo entry makes our next
   dissemination advertise ⊥ again — and [on_dissem_timer] lets a slotless
   update-mode node disseminate precisely so that this ⊥ announcement goes
   out: converged neighbours have exhausted their budget and would otherwise
   never re-disseminate, leaving the orphan nothing to overhear.  Hearing
   our ⊥ purges their record of us ([common_dissem_update]), changes their
   payload, re-arms their budget, and their answering disseminations rebuild
   [npar] with fresh slots and competitor sets.  Own children are flushed
   from [npar] (re-parenting onto one is a convergecast cycle).

   If every surviving neighbour is one of our own children, no answer can
   help — each would have to route through us.  Hand the problem down
   instead: detach the best-placed child with a [Release] token.  It
   re-anchors through its own neighbourhood (recursing if needed; the
   recursion descends the finite convergecast tree, so it terminates) and
   once it disseminates its new assignment we adopt it as our parent. *)
let orphan ~self s =
  let s =
    {
      s with
      parent = None;
      slot = None;
      hop = None;
      normal = false;
      dissem_budget = s.config.dissemination_timeout;
      ninfo = Int_map.remove self s.ninfo;
      npar = Int_set.diff s.npar s.children;
    }
  in
  if
    (not (Int_set.is_empty s.neighbours))
    && Int_set.subset s.neighbours s.children
  then begin
    let best =
      Int_set.fold
        (fun c acc ->
          let key = ((match ninfo_hop s c with Some h -> h | None -> max_int), c) in
          match acc with
          | Some best when Slpdas_util.Order.int_pair best key <= 0 -> acc
          | _ -> Some key)
        s.neighbours None
    in
    match best with
    | None -> (s, [])
    | Some (_, c) ->
      ( { s with children = Int_set.remove c s.children },
        [ Slpdas_gcn.Broadcast (Messages.Release { target = c }) ] )
  end
  else (s, [])

let on_neighbour_down ~self s ~dead =
  if dead = self then (s, [])
  else begin
    let s =
      {
        s with
        neighbours = Int_set.remove dead s.neighbours;
        npar = Int_set.remove dead s.npar;
        children = Int_set.remove dead s.children;
        others =
          Int_map.filter_map
            (fun p competitors ->
              if p = dead then None else Some (Int_set.remove dead competitors))
            s.others;
        ninfo = Int_map.remove dead s.ninfo;
        unassigned_seen = Int_set.remove dead s.unassigned_seen;
        from_ = Int_set.remove dead s.from_;
      }
    in
    if s.parent = Some dead && self <> s.config.sink then orphan ~self s
    else (s, [])
  end

(* receiveR: our parent became an orphan whose only surviving neighbours are
   its children, and it picked us to detach (see [orphan]).  Forget its
   (now meaningless) assignment and rejoin Phase 1 ourselves — unlike
   receiveF the ex-parent is alive, so it stays in [neighbours]; it will
   re-adopt us as *its* parent once we re-anchor and disseminate. *)
let on_release ~self s ~sender ~target =
  if target <> self || s.parent <> Some sender then (s, [])
  else
    orphan ~self
      {
        s with
        npar = Int_set.remove sender s.npar;
        ninfo = Int_map.remove sender s.ninfo;
      }

(* ------------------------------------------------------------------ *)
(* Phase 1 process action (end of each dissemination round)           *)
(* ------------------------------------------------------------------ *)

let choose_parent_and_slot ~self s =
  if s.slot <> None || Int_set.is_empty s.npar then s
  else begin
    let hops =
      Int_set.fold
        (fun k acc ->
          if Int_set.mem k s.children then acc
          else
            match ninfo_hop s k with Some h -> (k, h) :: acc | None -> acc)
        s.npar []
    in
    match hops with
    | [] -> s
    | (k0, h0) :: rest ->
      let min_hop = List.fold_left (fun acc (_, h) -> min acc h) h0 rest in
      let candidates =
        List.filter_map
          (fun (k, h) -> if h = min_hop then Some k else None)
          ((k0, h0) :: rest)
        |> List.sort Int.compare
      in
      let parent = Slpdas_util.Rng.choose s.rng candidates in
      let competitors =
        Int_set.add self
          (Option.value ~default:Int_set.empty (Int_map.find_opt parent s.others))
      in
      let order =
        Int_set.elements competitors
        |> List.map (fun v ->
               (rank_key ~seed:s.config.run_seed ~parent ~node:v, v))
        |> List.sort Slpdas_util.Order.int_pair
        |> List.map snd
      in
      let rec index i = function
        | [] -> 0
        | v :: rest -> if v = self then i else index (i + 1) rest
      in
      let rank = index 0 order in
      let parent_slot =
        match ninfo_slot s parent with Some x -> x | None -> s.config.num_slots
      in
      let slot = parent_slot - rank - 1 in
      let s =
        {
          s with
          hop = Some (min_hop + 1);
          parent = Some parent;
          slot = Some slot;
          dissem_budget = s.config.dissemination_timeout;
        }
      in
      set_self_info ~self s
  end

(* Self-repair: keep our slot strictly below the parent's (update mode), and
   resolve one detected 2-hop collision per round (Fig. 2 process action).
   Any self slot decrease re-enters update mode so children repair too.

   While [strong] holds (before Phase 2 begins) the bound is the minimum
   over every known hop-1-closer neighbour, which makes the converged
   schedule a strong DAS (Def. 2).  From the search period onwards only the
   chosen parent bounds us, so Phase 3's decoy gradient — which deliberately
   sits below nodes whose shortest-path parent it is — survives (the refined
   schedule is a weak DAS, Def. 3). *)
let repair_slot ~self ~strong s =
  match s.slot with
  | None -> s
  | Some mine ->
    let parent_bound =
      match s.parent with
      | Some p ->
        begin match ninfo_slot s p with
        | Some ps when mine >= ps -> Some (ps - 1)
        | Some _ | None -> None
        end
      | None -> None
    in
    let lowered =
      if not strong then
        (* Weak mode (from Phase 2 onwards): repair only an actual weak-DAS
           violation, for the same reason as in [on_dissem_update]. *)
        if has_forwarder ~self s ~mine then None else parent_bound
      else begin
        let my_hop = Option.value ~default:max_int s.hop in
        (* Own children never bound us from below.  After an orphan
           re-anchors on a longer path its hop can exceed a child's (the
           child kept the hop of the old, shorter tree), and "stay below
           the hop-closer child" then contradicts the child's own
           stay-below-the-parent bound — the pair would chase each other's
           slots down without bound.  The child's data reaches us by the
           tree edge regardless of its hop, so the constraint buys nothing.
           Fault-free schedules never trigger this: a child's hop is always
           parent hop + 1 there. *)
        let closer_min =
          Int_set.fold
            (fun v acc ->
              if Int_set.mem v s.children then acc
              else
                match Int_map.find_opt v s.ninfo with
                | Some { Messages.hop; slot } when hop = my_hop - 1 ->
                  Some (match acc with None -> slot | Some m -> min m slot)
                | Some _ | None -> acc)
            s.neighbours None
        in
        match (parent_bound, closer_min) with
        | _, Some bound when mine >= bound ->
          let candidate = bound - 1 in
          Some
            (match parent_bound with
            | Some pb -> min pb candidate
            | None -> candidate)
        | pb, _ -> pb
      end
    in
    let lowered =
      match lowered with
      | Some _ -> lowered
      | None ->
        let my_hop = Option.value ~default:max_int s.hop in
        let key v =
          Das_build.node_order_key ~salt:s.config.run_seed v
        in
        let collision =
          Int_map.exists
            (fun j { Messages.hop = jh; slot = js } ->
              j <> self && js = mine
              && (my_hop, key self, self) > (jh, key j, j))
            s.ninfo
        in
        if collision then Some (mine - 1) else None
    in
    begin match lowered with
    | None -> s
    | Some slot ->
      let s =
        {
          s with
          slot = Some slot;
          normal = false;
          dissem_budget = s.config.dissemination_timeout;
        }
      in
      set_self_info ~self s
    end

(* ------------------------------------------------------------------ *)
(* Phases 2 and 3                                                     *)
(* ------------------------------------------------------------------ *)

let min_slot_child s =
  let candidates =
    Int_set.fold
      (fun c acc ->
        match ninfo_slot s c with Some x -> (x, c) :: acc | None -> acc)
      s.children []
  in
  match List.sort Slpdas_util.Order.int_pair candidates with
  | [] -> None
  | (_, c) :: _ -> Some c

let alternates s =
  let base = Int_set.diff s.npar s.from_ in
  match s.parent with Some p -> Int_set.remove p base | None -> base

(* receiveS of Fig. 3. *)
let on_search ~self s ~sender ~target ~ttl =
  let s = { s with from_ = Int_set.add sender s.from_ } in
  if self <> target then (s, [])
  else if ttl > 0 then begin
    let next =
      match min_slot_child s with
      | Some c -> Some c
      | None ->
        (* No children: fall back to the lowest-slotted neighbour that is
           neither our parent nor on the search path. *)
        let eligible =
          Int_set.elements
            (Int_set.diff
               (match s.parent with
               | Some p -> Int_set.remove p s.neighbours
               | None -> s.neighbours)
               s.from_)
          |> List.filter_map (fun v ->
                 Option.map (fun x -> (x, v)) (ninfo_slot s v))
          |> List.sort Slpdas_util.Order.int_pair
        in
        (match eligible with [] -> None | (_, v) :: _ -> Some v)
    in
    match next with
    | None -> (s, [])
    | Some next ->
      (s, [ Slpdas_gcn.Broadcast (Messages.Search { target = next; ttl = ttl - 1 }) ])
  end
  else if not (Int_set.is_empty (alternates s)) then
    ({ s with start_node = true; pr = s.config.change_length }, [])
  else begin
    (* ttl = 0 with no alternate parent: keep forwarding until a suitable
       node is found (Fig. 3, final branch). *)
    let eligible set = Int_set.elements (Int_set.diff set s.from_) in
    let pool =
      match eligible s.children with
      | [] ->
        eligible
          (match s.parent with
          | Some p -> Int_set.remove p s.neighbours
          | None -> s.neighbours)
      | children -> children
    in
    match pool with
    | [] -> (s, [])
    | pool ->
      let next = Slpdas_util.Rng.choose s.rng pool in
      (s, [ Slpdas_gcn.Broadcast (Messages.Search { target = next; ttl = 0 }) ])
  end

(* startR of Fig. 4 (spontaneous: fires once when selected). *)
let start_refine ~self:_ s =
  let s = { s with start_node = false } in
  match Int_set.elements (alternates s) with
  | [] -> (s, [])
  | candidates ->
    let target = Slpdas_util.Rng.choose s.rng candidates in
    begin match neighbourhood_min_slot s with
    | None -> (s, [])
    | Some base_slot ->
      ( s,
        [
          Slpdas_gcn.Broadcast
            (Messages.Change { target; base_slot; ttl = s.pr - 1 });
        ] )
    end

(* receiveC of Fig. 4. *)
let on_change ~self s ~sender ~target ~base_slot ~ttl =
  let s = { s with from_ = Int_set.add sender s.from_ } in
  if self <> target then (s, [])
  else begin
    (* Take a slot below everything audible around the nominator and enter
       update mode so our children repair (§V text).  In a well-formed chain
       [base_slot] already includes us (we neighbour the nominator), so the
       [min] is a no-op there; it hardens against stray or corrupt tokens
       raising a slot, which nothing in this protocol may ever do. *)
    let s =
      {
        s with
        slot =
          Some
            (match s.slot with
            | Some mine -> min mine (base_slot - s.config.refine_gap)
            | None -> base_slot - s.config.refine_gap);
        normal = false;
        dissem_budget = s.config.dissemination_timeout;
      }
    in
    let s = set_self_info ~self s in
    if ttl <= 0 then (s, [])
    else begin
      let pool =
        Int_set.elements
          (Int_set.diff
             (match s.parent with
             | Some p -> Int_set.remove p s.neighbours
             | None -> s.neighbours)
             s.from_)
      in
      match pool with
      | [] -> (s, [])
      | pool ->
        let next = Slpdas_util.Rng.choose s.rng pool in
        begin match neighbourhood_min_slot s with
        | None -> (s, [])
        | Some base_slot ->
          ( s,
            [
              Slpdas_gcn.Broadcast
                (Messages.Change { target = next; base_slot; ttl = ttl - 1 });
            ] )
        end
    end
  end

(* ------------------------------------------------------------------ *)
(* Timer handlers                                                     *)
(* ------------------------------------------------------------------ *)

let on_hello_timer s =
  if s.hello_remaining <= 0 then (s, [])
  else
    ( { s with hello_remaining = s.hello_remaining - 1 },
      [
        Slpdas_gcn.Broadcast Messages.Hello;
        Slpdas_gcn.Set_timer { timer = Timer.hello; after = period_length s.config };
      ] )

(* Parking and resuming the setup-round timers.

   A [dissem] round that broadcasts nothing, and a [process] round that
   leaves [slot], [parent], [hop] and [ninfo] physically unchanged, do not
   re-arm their timer: the chain parks at its next position.  Until some
   event changes what those rounds read, every later round of the chain
   would be the same no-op.  A no-op round draws nothing from the node's
   RNG (the jitter is a stateless hash, and [choose_parent_and_slot] draws
   only on the round that assigns a slot), and a process round that is a
   no-op under the strong repair rule is one under the weak rule too (no
   parent bound, no closer-neighbour violation, and the same collision
   check).  So skipping those rounds changes no observable event, only the
   number of timer fires.  The sink's process round is always a no-op: its
   chain parks on the first fire for good.

   Two kinds of event can change a round's outcome: a handled [Receive]
   (fault-layer notices and injected [Hello]s included) wakes both chains,
   and a process round that changed the node's assignment wakes the
   dissemination chain.  Waking replays the chain's float accumulation up to
   the first round strictly after the current time and arms exactly that
   time with [Set_timer_at], so a resumed chain fires on the same floats as
   one that never parked.  A round due exactly now counts as past: its
   timer would have been queued a round earlier, before the broadcast that
   carries a received message, so it already ran as a no-op.  (A harness
   injection landing exactly on a chain time is resolved the same way,
   although without parking a harness callback queued before that round's
   timer would have run first.) *)
let resume_chain ~timer ~step ~node c chain =
  let rounds = setup_rounds c in
  if chain.armed || chain.round >= rounds then (chain, [])
  else begin
    let now = Slpdas_gcn.now () in
    let rec catch_up round at =
      if round < rounds && at <= now then
        catch_up (round + 1) (at +. step c ~node ~round)
      else (round, at)
    in
    let round, at = catch_up chain.round chain.at in
    if round >= rounds then ({ chain with round; at }, [])
    else ({ round; at; armed = true }, [ Slpdas_gcn.Set_timer_at { timer; at } ])
  end

let resume_dissem ~self s =
  let dissem, effects =
    resume_chain ~timer:Timer.dissem ~step:dissem_step ~node:self s.config
      s.dissem
  in
  ((if dissem == s.dissem then s else { s with dissem }), effects)

let resume_process ~self s =
  if self = s.config.sink then (s, [])
  else begin
    let process, effects =
      resume_chain ~timer:Timer.process ~step:process_step ~node:self s.config
        s.process
    in
    ((if process == s.process then s else { s with process }), effects)
  end

(* The next position of a chain whose round [round] fires now, [after]
   seconds before the next; armed while rounds remain. *)
let next_round c ~round ~after =
  {
    round = round + 1;
    at = Slpdas_gcn.now () +. after;
    armed = round + 1 < setup_rounds c;
  }

let on_dissem_timer ~self s =
  (* Firing at round r (jittered); rearm for round r+1 so that the absolute
     fire times are das_start + r·Pdiss + jitter(r). *)
  let round = s.dissem.round in
  let after = dissem_step s.config ~node:self ~round in
  let next = next_round s.config ~round ~after in
  let parked = { s with dissem = { next with armed = false } } in
  (* A slotless node in update mode is an orphan mid-repair (see [orphan]):
     it must broadcast its ⊥ announcement or converged neighbours never
     learn they have to answer.  Slotless *normal*-mode nodes are ordinary
     Phase-1 joiners and stay silent, as in the paper. *)
  let repairing = s.slot = None && (not s.normal) && self <> s.config.sink in
  let eligible = s.slot <> None || self = s.config.sink || repairing in
  if not eligible then (parked, [])
  else begin
    let payload = dissem_payload ~self s in
    let changed = s.last_sent <> Some payload in
    let budget =
      if changed then s.config.dissemination_timeout else s.dissem_budget
    in
    if budget <= 0 then (parked, [])
    else begin
      let s =
        {
          s with
          dissem = next;
          dissem_budget = budget - 1;
          last_sent = Some payload;
          (* an update dissemination is sent once, then we return to normal
             — except mid-repair, where update mode must persist until we
             re-anchor (it is what keeps us eligible here and lets receiveU
             record answering neighbours as potential parents) *)
          normal = (if repairing then s.normal else true);
        }
      in
      let rearm =
        if next.armed then
          [ Slpdas_gcn.Set_timer { timer = Timer.dissem; after } ]
        else []
      in
      (s, Slpdas_gcn.Broadcast payload :: rearm)
    end
  end

let on_process_timer ~self s =
  let round = s.process.round in
  let after = process_step s.config ~node:self ~round in
  let next = next_round s.config ~round ~after in
  let parked = { next with armed = false } in
  if self = s.config.sink then ({ s with process = parked }, [])
  else begin
    let strong =
      s.config.mode = Protectionless
      || round + 1 < strong_repair_rounds s.config
    in
    let s' = repair_slot ~self ~strong (choose_parent_and_slot ~self s) in
    if
      s'.slot == s.slot && s'.parent == s.parent && s'.hop == s.hop
      && s'.ninfo == s.ninfo
    then ({ s with process = parked }, [])
    else begin
      let rearm =
        if next.armed then
          [ Slpdas_gcn.Set_timer { timer = Timer.process; after } ]
        else []
      in
      let s, wake = resume_dissem ~self { s' with process = next } in
      (s, rearm @ wake)
    end
  end

let on_search_timer ~self s =
  if self <> s.config.sink || s.search_sent || s.config.mode <> Slp then (s, [])
  else begin
    match min_slot_child s with
    | None -> (s, [])
    | Some target ->
      ( { s with search_sent = true },
        [
          Slpdas_gcn.Broadcast
            (Messages.Search { target; ttl = s.config.search_distance });
        ] )
  end

let on_period_timer ~self s =
  let s = { s with period_index = s.period_index + 1 } in
  (* Reliable mode: readings whose snoop-ack never arrived are retried in
     this period's transmission. *)
  let s =
    if s.config.reliable_data && s.awaiting_ack <> [] then
      {
        s with
        pending_readings =
          List.rev_append
            (List.filter
               (fun r -> not (List.mem r s.pending_readings))
               s.awaiting_ack)
            s.pending_readings;
        awaiting_ack = [];
      }
    else s
  in
  (* Sources sense the asset once per period (§VI-A); the reading enters the
     aggregate this node will transmit in its slot. *)
  let s =
    if List.mem self s.config.data_sources then
      { s with pending_readings = (self, s.period_index) :: s.pending_readings }
    else s
  in
  let effects =
    [
      Slpdas_gcn.Set_timer
        { timer = Timer.period; after = period_length s.config };
    ]
  in
  if self = s.config.sink then (s, effects)
  else begin
    match s.slot with
    | None -> (s, effects)
    | Some slot ->
      let offset = float_of_int (max slot 0) *. s.config.slot_period in
      (s, Slpdas_gcn.Set_timer { timer = Timer.tx; after = offset } :: effects)
  end

let on_tx_timer ~self s =
  let readings = List.rev s.pending_readings in
  let payload = Messages.Data { origin = self; seq = s.data_seq; readings } in
  let awaiting_ack =
    if s.config.reliable_data then readings @ s.awaiting_ack else []
  in
  ( { s with data_seq = s.data_seq + 1; pending_readings = []; awaiting_ack },
    [ Slpdas_gcn.Broadcast payload ] )

(* Convergecast aggregation: a parent folds in the aggregates its children
   transmit; the sink records each reading's arrival period (deduplicating,
   since reliable-mode retries can arrive twice); and in reliable mode a
   child overhearing its own readings inside its parent's aggregate treats
   that as an implicit acknowledgement. *)
let on_data ~self s ~sender ~readings =
  let s =
    if
      s.config.reliable_data
      && s.parent = Some sender
      && s.awaiting_ack <> []
    then
      {
        s with
        awaiting_ack =
          List.filter (fun r -> not (List.mem r readings)) s.awaiting_ack;
      }
    else s
  in
  if not (Int_set.mem sender s.children) then s
  else if self = s.config.sink then
    {
      s with
      delivered =
        List.fold_left
          (fun acc (origin, generation) ->
            if
              List.exists
                (fun (o, g, _) -> o = origin && g = generation)
                acc
            then acc
            else (origin, generation, s.period_index) :: acc)
          s.delivered readings;
    }
  else begin
    let fresh =
      List.filter (fun r -> not (List.mem r s.pending_readings)) readings
    in
    { s with pending_readings = List.rev_append fresh s.pending_readings }
  end

(* ------------------------------------------------------------------ *)
(* Program assembly                                                   *)
(* ------------------------------------------------------------------ *)

let extract_schedule ~n config state_of =
  let schedule = Schedule.create ~n ~sink:config.sink in
  for v = 0 to n - 1 do
    if v <> config.sink then begin
      match (state_of v).slot with
      | Some s -> Schedule.assign schedule v s
      | None -> ()
    end
  done;
  schedule

let initial_state config ~self ~now =
  let rng =
    Slpdas_util.Rng.create ((config.run_seed * 7_368_787) lxor (self * 65_599))
  in
  let base =
    {
      config;
      rng;
      neighbours = Int_set.empty;
      npar = Int_set.empty;
      children = Int_set.empty;
      others = Int_map.empty;
      ninfo = Int_map.empty;
      unassigned_seen = Int_set.empty;
      hop = None;
      parent = None;
      slot = None;
      normal = true;
      dissem_budget = config.dissemination_timeout;
      last_sent = None;
      dissem =
        { round = 0; at = now +. dissem_boot config ~node:self; armed = true };
      process = { round = 0; at = now +. process_boot config; armed = true };
      search_sent = false;
      from_ = Int_set.empty;
      start_node = false;
      pr = 0;
      hello_remaining = config.neighbour_discovery_periods;
      data_seq = 0;
      period_index = -1;
      pending_readings = [];
      awaiting_ack = [];
      delivered = [];
    }
  in
  if self = config.sink then
    set_self_info ~self { base with hop = Some 0 }
  else base

let program config ~self:_ =
  let init ~self =
    let s = initial_state config ~self ~now:(Slpdas_gcn.now ()) in
    let hello_offset =
      Slpdas_util.Rng.float s.rng (period_length config *. 0.5)
    in
    let effects =
      [
        Slpdas_gcn.Set_timer { timer = Timer.hello; after = hello_offset };
        Slpdas_gcn.Set_timer
          { timer = Timer.dissem; after = dissem_boot config ~node:self };
        Slpdas_gcn.Set_timer
          { timer = Timer.process; after = process_boot config };
        Slpdas_gcn.Set_timer { timer = Timer.period; after = normal_start config };
      ]
    in
    let effects =
      if self = config.sink && config.mode = Slp then
        effects
        @ [
            Slpdas_gcn.Set_timer
              {
                timer = Timer.search;
                after =
                  float_of_int config.search_start_period *. period_length config;
              };
          ]
      else effects
    in
    (s, effects)
  in
  let receive name f =
    {
      Slpdas_gcn.name;
      handler =
        (fun ~self s trigger ->
          match trigger with
          | Slpdas_gcn.Receive { sender; msg } ->
            (* Any handled message may change what a setup round does, so
               it wakes both parked chains (see [resume_chain]). *)
            Option.map
              (fun (s, effects) ->
                let s, dissem = resume_dissem ~self s in
                let s, process = resume_process ~self s in
                (s, effects @ dissem @ process))
              (f ~self s ~sender msg)
          | Slpdas_gcn.Timeout _ | Slpdas_gcn.Round_end -> None);
    }
  in
  let timeout name timer f =
    {
      Slpdas_gcn.name;
      handler =
        (fun ~self s trigger ->
          match trigger with
          | Slpdas_gcn.Timeout t when Slpdas_gcn.Timer.equal t timer ->
            Some (f ~self s)
          | Slpdas_gcn.Timeout _ | Slpdas_gcn.Receive _ | Slpdas_gcn.Round_end
            -> None);
    }
  in
  let actions =
    [
      receive "receiveHello" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Hello -> Some (on_hello ~self s ~sender, [])
          | _ -> None);
      receive "receiveN" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Dissem { normal = true; info; parent } ->
            Some (on_dissem_normal ~self s ~sender ~info ~sender_parent:parent, [])
          | _ -> None);
      receive "receiveU" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Dissem { normal = false; info; parent } ->
            Some (on_dissem_update ~self s ~sender ~info ~sender_parent:parent, [])
          | _ -> None);
      receive "receiveS" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Search { target; ttl } when s.config.mode = Slp ->
            Some (on_search ~self s ~sender ~target ~ttl)
          | _ -> None);
      receive "receiveC" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Change { target; base_slot; ttl } when s.config.mode = Slp ->
            Some (on_change ~self s ~sender ~target ~base_slot ~ttl)
          | _ -> None);
      receive "receiveData" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Data { readings; _ } ->
            Some (on_data ~self s ~sender ~readings, [])
          | _ -> None);
      receive "receiveF" (fun ~self s ~sender:_ msg ->
          match msg with
          | Messages.Neighbour_down dead -> Some (on_neighbour_down ~self s ~dead)
          | _ -> None);
      receive "receiveR" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Release { target } -> Some (on_release ~self s ~sender ~target)
          | _ -> None);
      timeout "hello" Timer.hello (fun ~self:_ s -> on_hello_timer s);
      timeout "dissem" Timer.dissem (fun ~self s -> on_dissem_timer ~self s);
      timeout "process" Timer.process (fun ~self s -> on_process_timer ~self s);
      timeout "startS" Timer.search (fun ~self s -> on_search_timer ~self s);
      timeout "period" Timer.period (fun ~self s -> on_period_timer ~self s);
      timeout "tx" Timer.tx (fun ~self s -> on_tx_timer ~self s);
    ]
  in
  let spontaneous =
    [
      {
        Slpdas_gcn.sname = "startR";
        sguard = (fun s -> s.start_node);
        scommand = (fun ~self s -> start_refine ~self s);
      };
    ]
  in
  { Slpdas_gcn.init; actions; spontaneous }
