(* ------------------------------------------------------------------ *)
(* Neighbour tables                                                   *)
(* ------------------------------------------------------------------ *)

(* Node sets are sorted, duplicate-free [int array]s; the [Ninfo] and
   [Others] maps are a sorted key array beside parallel value arrays.  A
   table held by a state is never written: an update that changes the
   contents returns a fresh copy, one that does not returns its argument
   physically, so the handlers stay pure and a no-op reception or round
   copies no table and no state record.  Every walk runs in ascending key order, the order in
   which [Set] and [Map] iterate, so payload entries, the candidate lists
   handed to [Rng.choose] and every draw are what the tree-based tables
   gave. *)
module Ids = struct
  let empty : int array = [||]

  (* Index of [v] in [a.(lo) .. a.(hi - 1)], or [-1 - i] where [i] is the
     index it would be inserted at. *)
  let rec search (a : int array) v lo hi =
    if lo >= hi then -1 - lo
    else begin
      let mid = (lo + hi) lsr 1 in
      let x = Array.unsafe_get a mid in
      if x = v then mid
      else if x < v then search a v (mid + 1) hi
      else search a v lo mid
    end

  let find a v = search a v 0 (Array.length a)

  let mem a v = find a v >= 0

  let insert_at a i v =
    let n = Array.length a in
    let b = Array.make (n + 1) v in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let delete_at a i =
    let b = Array.sub a 0 (Array.length a - 1) in
    Array.blit a (i + 1) b i (Array.length b - i);
    b

  let add a v =
    let i = find a v in
    if i >= 0 then a else insert_at a (-1 - i) v

  let remove a v =
    let i = find a v in
    if i < 0 then a else delete_at a i

  let diff a b = Array.fold_left remove a b

  let subset a b = Array.for_all (mem b) a
end

(* Known (hop, slot) per node. *)
module Ninfo = struct
  type t = { keys : int array; hops : int array; slots : int array }

  let empty = { keys = Ids.empty; hops = Ids.empty; slots = Ids.empty }

  (* [Ids.find] on the keys: non-negative exactly when [v] is known. *)
  let index t v = Ids.find t.keys v

  let find t v =
    let i = index t v in
    if i < 0 then None else Some { Messages.hop = t.hops.(i); slot = t.slots.(i) }

  let replace (a : int array) i x =
    if a.(i) = x then a
    else begin
      let a = Array.copy a in
      a.(i) <- x;
      a
    end

  let set t v ~hop ~slot =
    let i = index t v in
    if i < 0 then begin
      let i = -1 - i in
      {
        keys = Ids.insert_at t.keys i v;
        hops = Ids.insert_at t.hops i hop;
        slots = Ids.insert_at t.slots i slot;
      }
    end
    else if t.hops.(i) = hop && t.slots.(i) = slot then t
    else { t with hops = replace t.hops i hop; slots = replace t.slots i slot }

  let remove t v =
    let i = index t v in
    if i < 0 then t
    else
      {
        keys = Ids.delete_at t.keys i;
        hops = Ids.delete_at t.hops i;
        slots = Ids.delete_at t.slots i;
      }
end

(* Per potential parent, the competitor set its payload revealed. *)
module Others = struct
  type t = { parents : int array; competitors : int array array }

  let empty = { parents = Ids.empty; competitors = [||] }

  let find_opt t p =
    let i = Ids.find t.parents p in
    if i < 0 then None else Some t.competitors.(i)

  let find t p =
    let i = Ids.find t.parents p in
    if i < 0 then Ids.empty else t.competitors.(i)

  let set t p set =
    let i = Ids.find t.parents p in
    if i < 0 then begin
      let i = -1 - i in
      {
        parents = Ids.insert_at t.parents i p;
        competitors = Ids.insert_at t.competitors i set;
      }
    end
    else if t.competitors.(i) == set then t
    else begin
      let competitors = Array.copy t.competitors in
      competitors.(i) <- set;
      { t with competitors }
    end

  (* Forget [dead] both as a potential parent and as a competitor. *)
  let purge t dead =
    let t =
      let i = Ids.find t.parents dead in
      if i < 0 then t
      else
        {
          parents = Ids.delete_at t.parents i;
          competitors = Ids.delete_at t.competitors i;
        }
    in
    { t with competitors = Array.map (fun c -> Ids.remove c dead) t.competitors }
end

type ninfo_table = Ninfo.t

type others_table = Others.t

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

type chain_kind = Dissem_chain | Process_chain

type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : int array;
  npar : int array;
  children : int array;
  others : others_table;
  ninfo : ninfo_table;
  unassigned_seen : int array;
  hop : int option;
  parent : int option;
  slot : int option;
  normal : bool;
  dissem_budget : int;
  last_sent : Messages.t option;
  dissem : chain;
  process : chain;
  search_sent : bool;
  from_ : int array;
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

let ninfo s v = Ninfo.find s.ninfo v

let competitors s ~parent = Others.find_opt s.others parent

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
  Slpdas_util.Rng.first_float
    ((c.run_seed * 31) lxor (node * 2_097_593) lxor (round * 613))
    (0.3 *. c.dissemination_period)

(* Gap between dissemination rounds [round] and [round + 1], so that
   successive fires land on das_start + r·Pdiss + jitter(r).  Chain times
   accumulate these gaps with [+.] exactly as the engine adds a
   [Set_timer]'s [after] to its current time. *)
let dissem_step c ~node ~round =
  c.dissemination_period
  -. dissem_jitter c ~node ~round
  +. dissem_jitter c ~node ~round:(round + 1)

(* Boot-relative time of each chain's round 0; the process action runs at
   80% of each dissemination round. *)
let dissem_boot c ~node = das_start c +. dissem_jitter c ~node ~round:0

let process_boot c = das_start c +. (c.dissemination_period *. 0.8)

(* Run-salted deterministic hash: gives every (parent, child) pair a
   pseudo-random rank key that all siblings compute identically, standing in
   for the arrival-order noise that randomises ranks in the paper's TOSSIM
   runs. *)
let rank_key ~seed ~parent ~node =
  Slpdas_util.Rng.first_bits62
    ((seed * 1_000_003) lxor (parent * 8191) lxor (node * 131))

let is_sink s v = v = s.config.sink

let is_slp c = match c.mode with Slp -> true | Protectionless -> false

(* [parent = Some v], without building the option. *)
let points_to (parent : int option) v = match parent with Some p -> p = v | None -> false

(* Slot of [v] as known to [s], or [default] when ⊥. *)
let slot_or s v ~default =
  let i = Ninfo.index s.ninfo v in
  if i < 0 then default else s.ninfo.Ninfo.slots.(i)

let hop_or s v ~default =
  let i = Ninfo.index s.ninfo v in
  if i < 0 then default else s.ninfo.Ninfo.hops.(i)

(* min{Ninfo[j].slot | j ∈ myN} ∪ {slot}: the neighbourhood slot floor used
   by Phase 3 (Figs. 3–4). *)
let neighbourhood_min_slot s =
  let floor = ref (Option.value ~default:max_int s.slot) in
  let known = ref (Option.is_some s.slot) in
  for k = 0 to Array.length s.neighbours - 1 do
    let i = Ninfo.index s.ninfo s.neighbours.(k) in
    if i >= 0 then begin
      known := true;
      floor := Int.min !floor s.ninfo.Ninfo.slots.(i)
    end
  done;
  if !known then Some !floor else None

(* The sender's own entry of a dissemination payload when it announces
   itself assigned: the payload's option itself, not a copy. *)
let rec sender_info ~(sender : int) = function
  | [] -> None
  | (v, (Some _ as entry)) :: _ when v = sender -> entry
  | _ :: rest -> sender_info ~sender rest

let rec sender_unassigned ~(sender : int) = function
  | [] -> false
  | (v, None) :: _ when v = sender -> true
  | _ :: rest -> sender_unassigned ~sender rest

(* [set] plus every node a payload reports unassigned. *)
let rec add_unassigned set = function
  | [] -> set
  | (v, None) :: rest -> add_unassigned (Ids.add set v) rest
  | (_, Some _) :: rest -> add_unassigned set rest

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
let rec merge_info ninfo ~sender = function
  | [] -> ninfo
  | (_, None) :: rest -> merge_info ninfo ~sender rest
  | (v, Some (incoming : Messages.ninfo)) :: rest ->
    let i = Ninfo.index ninfo v in
    let ninfo =
      if v = sender || i < 0 then
        Ninfo.set ninfo v ~hop:incoming.Messages.hop ~slot:incoming.Messages.slot
      else
        Ninfo.set ninfo v ~hop:ninfo.Ninfo.hops.(i)
          ~slot:(Int.min ninfo.Ninfo.slots.(i) incoming.Messages.slot)
    in
    merge_info ninfo ~sender rest

let set_self_info ~self s =
  match (s.hop, s.slot) with
  | Some hop, Some slot -> { s with ninfo = Ninfo.set s.ninfo self ~hop ~slot }
  | Some hop, None when is_sink s self ->
    { s with ninfo = Ninfo.set s.ninfo self ~hop ~slot:s.config.num_slots }
  | _ -> s

(* ------------------------------------------------------------------ *)
(* Dissemination payload                                              *)
(* ------------------------------------------------------------------ *)

let dissem_payload ~self s =
  let info = ref [ (self, Ninfo.find s.ninfo self) ] in
  for i = Array.length s.neighbours - 1 downto 0 do
    let v = s.neighbours.(i) in
    info := (v, Ninfo.find s.ninfo v) :: !info
  done;
  Messages.Dissem { normal = s.normal; info = !info; parent = s.parent }

(* ------------------------------------------------------------------ *)
(* Receive handlers                                                   *)
(* ------------------------------------------------------------------ *)

let on_hello ~self:_ s ~sender =
  let neighbours = Ids.add s.neighbours sender in
  if neighbours == s.neighbours then s else { s with neighbours }

let common_dissem_update ~(self : int) s ~sender ~info ~sender_parent =
  let neighbours = Ids.add s.neighbours sender in
  let children =
    match sender_parent with
    | Some p when p = self -> Ids.add s.children sender
    | Some _ -> Ids.remove s.children sender
    | None -> s.children
  in
  let ninfo = merge_info s.ninfo ~sender info in
  let unassigned_seen = add_unassigned s.unassigned_seen info in
  (* A sender advertising *itself* as ⊥ has dropped its assignment (orphan
     repair; see [on_neighbour_down]).  The monotone merge above cannot
     express that — slots only ever decrease — so trust the owner and purge
     our stale record: its old slot must not seed [choose_parent_and_slot]
     again, and the payload change this causes is what re-arms our own
     dissemination budget so converged nodes answer the orphan's ⊥
     announcement.  Third-party [None] entries (neighbours the sender merely
     has not heard from) are still only recorded in [unassigned_seen]. *)
  let gone = sender_unassigned ~sender info in
  let ninfo = if gone then Ninfo.remove ninfo sender else ninfo in
  let npar = if gone then Ids.remove s.npar sender else s.npar in
  if
    neighbours == s.neighbours && children == s.children && ninfo == s.ninfo
    && unassigned_seen == s.unassigned_seen && npar == s.npar
  then s
  else { s with neighbours; children; ninfo; unassigned_seen; npar }

(* Record an assigned sender as a potential parent, together with the
   competitor set its payload reveals (the [Others] map that later decides
   our rank, hence our collision-free slot).  Never a child: re-parenting
   onto one's own convergecast child is a cycle.  In the fault-free run the
   guard is vacuous — an unassigned node cannot have children because no
   neighbour adopts a slotless parent — but during orphan repair our
   children do re-disseminate while we are slotless. *)
let record_candidate s ~sender ~info =
  let others =
    Others.set s.others sender (add_unassigned (Others.find s.others sender) info)
  in
  let npar = Ids.add s.npar sender in
  if others == s.others && npar == s.npar then s else { s with npar; others }

(* receiveN of Fig. 2: a normal dissemination. *)
let on_dissem_normal ~self s ~sender ~info ~sender_parent =
  let s =
    if
      Option.is_none s.slot
      && Option.is_some (sender_info ~sender info)
      && not (Ids.mem s.children sender)
    then record_candidate s ~sender ~info
    else s
  in
  common_dissem_update ~self s ~sender ~info ~sender_parent

(* Weak-DAS check from local knowledge: does some neighbour (or the sink)
   transmit later than us?  While it does, our data still makes progress and
   no repair is needed (Def. 3). *)
let has_forwarder s ~mine =
  let found = ref false in
  for i = 0 to Array.length s.neighbours - 1 do
    let m = s.neighbours.(i) in
    if is_sink s m || slot_or s m ~default:min_int > mine then found := true
  done;
  !found

(* receiveU of Fig. 2: an update dissemination from the parent re-lowers our
   slot and cascades the update phase — but only when the change actually
   broke the (weak) DAS property for us.  An unconditional below-parent
   cascade would re-create a descending gradient under every decoy node of
   Phase 3 and escort the attacker onwards, defeating the redirection the
   update is meant to protect. *)
let on_dissem_update ~self s ~sender ~info ~sender_parent =
  let s = common_dissem_update ~self s ~sender ~info ~sender_parent in
  let sender_entry = sender_info ~sender info in
  (* During orphan repair ([slot = None] while in update mode, a state the
     fault-free protocol never reaches) the neighbours we can re-anchor to
     mostly announce themselves through *update* disseminations — they are
     repairing too.  receiveN's potential-parent recording would miss them,
     so replicate it here.  [s.children] is already refreshed by
     [common_dissem_update], so a released child that re-anchored elsewhere
     (its [parent] points away from us) is admissible again. *)
  let s =
    if
      Option.is_none s.slot && (not s.normal)
      && (not (is_sink s self))
      && Option.is_some sender_entry
      && (not (Ids.mem s.children sender))
      && not (points_to sender_parent self)
    then record_candidate s ~sender ~info
    else s
  in
  match (s.parent, s.slot, sender_entry) with
  | Some p, Some mine, Some { Messages.slot = ps; _ }
    when p = sender && mine >= ps && not (has_forwarder s ~mine) ->
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
      ninfo = Ninfo.remove s.ninfo self;
      npar = Ids.diff s.npar s.children;
    }
  in
  if Array.length s.neighbours > 0 && Ids.subset s.neighbours s.children then begin
    (* The child with the lowest (hop, id), unknown hops last. *)
    let best = ref s.neighbours.(0) in
    Array.iter
      (fun c ->
        if hop_or s c ~default:max_int < hop_or s !best ~default:max_int then
          best := c)
      s.neighbours;
    let c = !best in
    ( { s with children = Ids.remove s.children c },
      [ Slpdas_gcn.Broadcast (Messages.Release { target = c }) ] )
  end
  else (s, [])

let on_neighbour_down ~self s ~dead =
  if dead = self then (s, [])
  else begin
    let s =
      {
        s with
        neighbours = Ids.remove s.neighbours dead;
        npar = Ids.remove s.npar dead;
        children = Ids.remove s.children dead;
        others = Others.purge s.others dead;
        ninfo = Ninfo.remove s.ninfo dead;
        unassigned_seen = Ids.remove s.unassigned_seen dead;
        from_ = Ids.remove s.from_ dead;
      }
    in
    if points_to s.parent dead && not (is_sink s self) then orphan ~self s
    else (s, [])
  end

(* receiveR: our parent became an orphan whose only surviving neighbours are
   its children, and it picked us to detach (see [orphan]).  Forget its
   (now meaningless) assignment and rejoin Phase 1 ourselves — unlike
   receiveF the ex-parent is alive, so it stays in [neighbours]; it will
   re-adopt us as *its* parent once we re-anchor and disseminate. *)
let on_release ~self s ~sender ~target =
  if target <> self || not (points_to s.parent sender) then (s, [])
  else
    orphan ~self
      {
        s with
        npar = Ids.remove s.npar sender;
        ninfo = Ninfo.remove s.ninfo sender;
      }

(* ------------------------------------------------------------------ *)
(* Phase 1 process action (end of each dissemination round)           *)
(* ------------------------------------------------------------------ *)

let choose_parent_and_slot ~self s =
  if Option.is_some s.slot || Array.length s.npar = 0 then s
  else begin
    let min_hop = ref max_int and eligible = ref false in
    for i = 0 to Array.length s.npar - 1 do
      let k = s.npar.(i) in
      if (not (Ids.mem s.children k)) && Ninfo.index s.ninfo k >= 0 then begin
        eligible := true;
        min_hop := Int.min !min_hop (hop_or s k ~default:max_int)
      end
    done;
    if not !eligible then s
    else begin
      let min_hop = !min_hop in
      let candidates = ref [] in
      for i = Array.length s.npar - 1 downto 0 do
        let k = s.npar.(i) in
        if (not (Ids.mem s.children k)) && Ninfo.index s.ninfo k >= 0
           && hop_or s k ~default:max_int = min_hop
        then candidates := k :: !candidates
      done;
      let parent = Slpdas_util.Rng.choose s.rng !candidates in
      (* Our rank: our position among the parent's competitors (us
         included) ordered by (rank key, id). *)
      let key v = rank_key ~seed:s.config.run_seed ~parent ~node:v in
      let mine = key self in
      let rank = ref 0 in
      Array.iter
        (fun v ->
          let k = key v in
          if k < mine || (k = mine && v < self) then incr rank)
        (Ids.add (Others.find s.others parent) self);
      let parent_slot = slot_or s parent ~default:s.config.num_slots in
      let slot = parent_slot - !rank - 1 in
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
    let t = s.ninfo in
    let parent_bound =
      match s.parent with
      | Some p ->
        let i = Ninfo.index t p in
        if i >= 0 && mine >= t.Ninfo.slots.(i) then Some (t.Ninfo.slots.(i) - 1)
        else None
      | None -> None
    in
    let my_hop = Option.value ~default:max_int s.hop in
    let lowered =
      if not strong then
        (* Weak mode (from Phase 2 onwards): repair only an actual weak-DAS
           violation, for the same reason as in [on_dissem_update]. *)
        if has_forwarder s ~mine then None else parent_bound
      else begin
        (* Own children never bound us from below.  After an orphan
           re-anchors on a longer path its hop can exceed a child's (the
           child kept the hop of the old, shorter tree), and "stay below
           the hop-closer child" then contradicts the child's own
           stay-below-the-parent bound — the pair would chase each other's
           slots down without bound.  The child's data reaches us by the
           tree edge regardless of its hop, so the constraint buys nothing.
           Fault-free schedules never trigger this: a child's hop is always
           parent hop + 1 there. *)
        let closer_min = ref max_int and closer = ref false in
        for i = 0 to Array.length s.neighbours - 1 do
          let v = s.neighbours.(i) in
          let j = Ninfo.index t v in
          if j >= 0 && (not (Ids.mem s.children v)) && t.Ninfo.hops.(j) = my_hop - 1
          then begin
            closer := true;
            closer_min := Int.min !closer_min t.Ninfo.slots.(j)
          end
        done;
        if !closer && mine >= !closer_min then
          Some
            (match parent_bound with
            | Some pb -> Int.min pb (!closer_min - 1)
            | None -> !closer_min - 1)
        else parent_bound
      end
    in
    let lowered =
      match lowered with
      | Some _ -> lowered
      | None ->
        (* A 2-hop collision we lose: some other node on our slot is
           ordered before us by (hop, order key, id). *)
        let key v = Das_build.node_order_key ~salt:s.config.run_seed v in
        let collision = ref false in
        for j = 0 to Array.length t.Ninfo.keys - 1 do
          let v = t.Ninfo.keys.(j) and jh = t.Ninfo.hops.(j) in
          if v <> self && t.Ninfo.slots.(j) = mine
             && (my_hop > jh
                || my_hop = jh
                   && (let ks = key self and kv = key v in
                       ks > kv || (ks = kv && self > v)))
          then collision := true
        done;
        if !collision then Some (mine - 1) else None
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

(* The member of [nodes] with the lowest known (slot, id). *)
let lowest_slotted s nodes =
  let best = ref None and best_slot = ref max_int in
  for k = 0 to Array.length nodes - 1 do
    let v = nodes.(k) in
    let i = Ninfo.index s.ninfo v in
    if i >= 0 && (Option.is_none !best || s.ninfo.Ninfo.slots.(i) < !best_slot)
    then begin
      best := Some v;
      best_slot := s.ninfo.Ninfo.slots.(i)
    end
  done;
  !best

let min_slot_child s = lowest_slotted s s.children

(* [nodes] without our parent and without the senders of tokens seen. *)
let off_path s nodes =
  let nodes = match s.parent with Some p -> Ids.remove nodes p | None -> nodes in
  Ids.diff nodes s.from_

let alternates s = off_path s s.npar

let record_from s ~sender =
  let from_ = Ids.add s.from_ sender in
  if from_ == s.from_ then s else { s with from_ }

(* receiveS of Fig. 3. *)
let on_search ~self s ~sender ~(target : int) ~ttl =
  let s = record_from s ~sender in
  if self <> target then (s, [])
  else if ttl > 0 then begin
    let next =
      match min_slot_child s with
      | Some c -> Some c
      | None ->
        (* No children: fall back to the lowest-slotted neighbour that is
           neither our parent nor on the search path. *)
        lowest_slotted s (off_path s s.neighbours)
    in
    match next with
    | None -> (s, [])
    | Some next ->
      (s, [ Slpdas_gcn.Broadcast (Messages.Search { target = next; ttl = ttl - 1 }) ])
  end
  else if Array.length (alternates s) > 0 then
    ({ s with start_node = true; pr = s.config.change_length }, [])
  else begin
    (* ttl = 0 with no alternate parent: keep forwarding until a suitable
       node is found (Fig. 3, final branch). *)
    let pool =
      match Ids.diff s.children s.from_ with
      | [||] -> off_path s s.neighbours
      | children -> children
    in
    match Array.to_list pool with
    | [] -> (s, [])
    | pool ->
      let next = Slpdas_util.Rng.choose s.rng pool in
      (s, [ Slpdas_gcn.Broadcast (Messages.Search { target = next; ttl = 0 }) ])
  end

(* startR of Fig. 4 (spontaneous: fires once when selected). *)
let start_refine ~self:_ s =
  let s = { s with start_node = false } in
  match Array.to_list (alternates s) with
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
  let s = record_from s ~sender in
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
            | Some mine -> Int.min mine (base_slot - s.config.refine_gap)
            | None -> base_slot - s.config.refine_gap);
        normal = false;
        dissem_budget = s.config.dissemination_timeout;
      }
    in
    let s = set_self_info ~self s in
    if ttl <= 0 then (s, [])
    else begin
      match Array.to_list (off_path s s.neighbours) with
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
   timer would have run first.)

   The replay is one loop per chain.  A dissem gap is
   [Pdiss -. jitter r +. jitter (r + 1)], so the loop carries
   [jitter (r + 1)] into the next round and draws one jitter per round; the
   process gap is the constant [Pdiss]. *)
let catch_up_rounds c kind ~rounds ~node ~now (chain : chain) =
  let round = ref chain.round and at = ref chain.at in
  (match kind with
  | Process_chain ->
    while !round < rounds && !at <= now do
      at := !at +. c.dissemination_period;
      incr round
    done
  | Dissem_chain ->
    if !round < rounds && !at <= now then begin
      let jitter = ref (dissem_jitter c ~node ~round:!round) in
      while !round < rounds && !at <= now do
        let next = dissem_jitter c ~node ~round:(!round + 1) in
        at := !at +. (c.dissemination_period -. !jitter +. next);
        jitter := next;
        incr round
      done
    end);
  { round = !round; at = !at; armed = !round < rounds }

let catch_up c kind ~node ~now chain =
  catch_up_rounds c kind ~rounds:(setup_rounds c) ~node ~now chain

(* A parked chain woken now; any other chain is returned as is. *)
let resume_chain c kind ~rounds ~node (chain : chain) =
  if chain.armed || chain.round >= rounds then chain
  else catch_up_rounds c kind ~rounds ~node ~now:(Slpdas_gcn.now ()) chain

(* The arming of a chain that [resume_chain] woke, in front of [rest]. *)
let arm_woken timer ~was (chain : chain) rest =
  if chain != was && chain.armed then
    Slpdas_gcn.Set_timer_at { timer; at = chain.at } :: rest
  else rest

let resume_dissem ~rounds ~self s =
  let dissem = resume_chain s.config Dissem_chain ~rounds ~node:self s.dissem in
  if dissem == s.dissem then (s, [])
  else ({ s with dissem }, arm_woken Timer.dissem ~was:s.dissem dissem [])

(* The next position of a chain whose round [round] fires now, [after]
   seconds before the next; armed while rounds remain. *)
let next_round ~rounds ~round ~after =
  {
    round = round + 1;
    at = Slpdas_gcn.now () +. after;
    armed = round + 1 < rounds;
  }

let on_dissem_timer ~rounds ~self s =
  (* Firing at round r (jittered); rearm for round r+1 so that the absolute
     fire times are das_start + r·Pdiss + jitter(r). *)
  let round = s.dissem.round in
  let after = dissem_step s.config ~node:self ~round in
  let next = next_round ~rounds ~round ~after in
  let parked = { s with dissem = { next with armed = false } } in
  (* A slotless node in update mode is an orphan mid-repair (see [orphan]):
     it must broadcast its ⊥ announcement or converged neighbours never
     learn they have to answer.  Slotless *normal*-mode nodes are ordinary
     Phase-1 joiners and stay silent, as in the paper. *)
  let repairing =
    Option.is_none s.slot && (not s.normal) && not (is_sink s self)
  in
  let eligible = Option.is_some s.slot || is_sink s self || repairing in
  if not eligible then (parked, [])
  else begin
    let payload = dissem_payload ~self s in
    let changed =
      match s.last_sent with
      | Some last -> not (Messages.equal last payload)
      | None -> true
    in
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

let on_process_timer ~rounds ~strong_rounds ~self s =
  let round = s.process.round in
  let after = s.config.dissemination_period in
  let next = next_round ~rounds ~round ~after in
  let parked = { next with armed = false } in
  if is_sink s self then ({ s with process = parked }, [])
  else begin
    let strong = (not (is_slp s.config)) || round + 1 < strong_rounds in
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
      let s, wake = resume_dissem ~rounds ~self { s' with process = next } in
      (s, rearm @ wake)
    end
  end

let on_search_timer ~self s =
  if (not (is_sink s self)) || s.search_sent || not (is_slp s.config) then (s, [])
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

let rec mem_reading (((o, g) : int * int) as r) = function
  | [] -> false
  | (o', g') :: rest -> (o = o' && g = g') || mem_reading r rest

let rec mem_int (v : int) = function
  | [] -> false
  | x :: rest -> x = v || mem_int v rest

let on_period_timer ~self s =
  let s = { s with period_index = s.period_index + 1 } in
  (* Reliable mode: readings whose snoop-ack never arrived are retried in
     this period's transmission. *)
  let s =
    match s.awaiting_ack with
    | _ :: _ when s.config.reliable_data ->
      {
        s with
        pending_readings =
          List.rev_append
            (List.filter
               (fun r -> not (mem_reading r s.pending_readings))
               s.awaiting_ack)
            s.pending_readings;
        awaiting_ack = [];
      }
    | _ -> s
  in
  (* Sources sense the asset once per period (§VI-A); the reading enters the
     aggregate this node will transmit in its slot. *)
  let s =
    if mem_int self s.config.data_sources then
      { s with pending_readings = (self, s.period_index) :: s.pending_readings }
    else s
  in
  let effects =
    [
      Slpdas_gcn.Set_timer
        { timer = Timer.period; after = period_length s.config };
    ]
  in
  if is_sink s self then (s, effects)
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
    match s.awaiting_ack with
    | _ :: _ when s.config.reliable_data && points_to s.parent sender ->
      {
        s with
        awaiting_ack =
          List.filter (fun r -> not (mem_reading r readings)) s.awaiting_ack;
      }
    | _ -> s
  in
  if not (Ids.mem s.children sender) then s
  else if is_sink s self then
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
      List.filter (fun r -> not (mem_reading r s.pending_readings)) readings
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
      neighbours = Ids.empty;
      npar = Ids.empty;
      children = Ids.empty;
      others = Others.empty;
      ninfo = Ninfo.empty;
      unassigned_seen = Ids.empty;
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
      from_ = Ids.empty;
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
  let rounds = setup_rounds config in
  let strong_rounds = strong_repair_rounds config in
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
      if self = config.sink && is_slp config then
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
  (* Any handled message may change what a setup round does, so it wakes
     both parked chains (see [resume_chain]); the armings of the woken
     chains follow the handler's own effects. *)
  let wake ~self fired =
    match fired with
    | None -> None
    | Some (s, effects) ->
      let dissem = resume_chain config Dissem_chain ~rounds ~node:self s.dissem in
      let process =
        if self = config.sink then s.process
        else resume_chain config Process_chain ~rounds ~node:self s.process
      in
      if dissem == s.dissem && process == s.process then fired
      else begin
        let woken =
          arm_woken Timer.dissem ~was:s.dissem dissem
            (arm_woken Timer.process ~was:s.process process [])
        in
        Some
          ( { s with dissem; process },
            match woken with [] -> effects | _ -> effects @ woken )
      end
  in
  let receive name f =
    {
      Slpdas_gcn.name;
      handler =
        (fun ~self s trigger ->
          match trigger with
          | Slpdas_gcn.Receive { sender; msg } -> wake ~self (f ~self s ~sender msg)
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
          | Messages.Search { target; ttl } when is_slp s.config ->
            Some (on_search ~self s ~sender ~target ~ttl)
          | _ -> None);
      receive "receiveC" (fun ~self s ~sender msg ->
          match msg with
          | Messages.Change { target; base_slot; ttl } when is_slp s.config ->
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
      timeout "dissem" Timer.dissem (fun ~self s ->
          on_dissem_timer ~rounds ~self s);
      timeout "process" Timer.process (fun ~self s ->
          on_process_timer ~rounds ~strong_rounds ~self s);
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
