(** Phantom routing — the classic routing-layer SLP baseline (§II, [4, 5]).

    The paper's related work contrasts MAC-level SLP with routing-level
    techniques, "typically with high message overhead".  This module
    implements the canonical such technique so the claim can be measured on
    the same simulator: every source period the source sends its reading on
    a {e directed random walk} of [walk_length] hops (phase 1); the node
    where the walk ends — the {e phantom source} — floods the message to the
    whole network (phase 2), so the sink receives it while a back-tracing
    attacker is drawn towards the phantom rather than the real source.

    How the source picks each walk's direction is a policy ({!direction}):
    a uniformly random compass bearing (classic phantom routing), or the
    PSSPR sector rule of Chen et al., which never aims a walk back towards
    the sink.  Everything else — walk token forwarding, flood dedup, hello
    discovery, sink delivery accounting — is shared, so capture-ratio
    differences between the two policies come from the direction alone.

    [walk_length = 0] degenerates to plain flooding from the real source:
    the protectionless routing baseline, against which an eavesdropper wins
    by walking straight up the flood wavefront.

    The implementation is a guarded-command program over the same
    discrete-event engine as the TDMA protocol; there is no TDMA here — it
    is a CSMA-style layer where each forwarding hop costs [hop_delay]
    seconds. *)

module Int_set : Set.S with type elt = int
module Int_map : Map.S with type key = int

(** The direction policy of the source, drawn once per message from the
    source's RNG. *)
type direction =
  | Compass  (** a uniformly random bearing *)
  | Sectors of int
      (** PSSPR: split the plane around the source into [n] equal angular
          sectors; when [n > 3], exclude the sector facing the sink and its
          two neighbours; pick a remaining sector uniformly and a uniform
          bearing inside it (PSSPR uses 8) *)

type config = {
  sink : int;
  source : int;
  walk_length : int;  (** W: hops of directed random walk; 0 = pure flood *)
  direction : direction;
      (** how each message's walk direction is drawn; the walk then only
          takes hops that advance in it where it can (the {e directed} walk
          of [4, 5]) *)
  positions : (float * float) array;
      (** node coordinates, used by directed forwarding (nodes know their
          own location, the standard phantom-routing assumption) *)
  source_period : float;  (** seconds between source messages (P{_src}) *)
  hop_delay : float;  (** per-hop forwarding delay in seconds *)
  start_time : float;  (** when the source starts transmitting *)
  run_seed : int;
}

val default_config :
  topology:Slpdas_wsn.Topology.t -> walk_length:int -> config
(** [Compass] walks, [P{_src} = 5.5 s], 20 ms hop delay, 5 s start; sink,
    source and positions from the topology. *)

type msg =
  | Hello  (** neighbour discovery *)
  | Walk of { id : int; ttl : int; target : int; dir : float * float }
      (** phase-1 token: only [target] forwards it, advancing along [dir]
          where it can *)
  | Flood of { id : int }  (** phase-2 flooding *)

val message_id : msg -> int option
(** The message instance a transmission belongs to, if it is data-bearing —
    what an eavesdropper uses to recognise "a new message" (it cannot read
    contents, but distinct messages are distinguishable ciphertexts). *)

(** Per-node protocol state; transparent for harnesses and tests. *)
type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : Int_set.t;
  seen : Int_set.t;  (** flooded message ids already forwarded *)
  walk_from : int Int_map.t;  (** walk id → previous hop (backtrack avoidance) *)
  pending_walks : (int * int * (float * float)) Int_map.t;
      (** walk id → (next hop, remaining ttl, direction) awaiting the
          hop-delay timer *)
  next_id : int;  (** source: next message id *)
  received : int list;  (** sink: message ids received, most recent first *)
  hello_remaining : int;
}

(** Seed streams of a direction policy.  Each policy keeps the streams it
    had as a protocol of its own ([Sectors] was the separate sector-phantom
    protocol), so seeded runs of both are unchanged by the fold. *)
type family = {
  name : string;  (** scenario name: ["phantom"] or ["sector-phantom"] *)
  node_salt : int;  (** mixed into every node's RNG seed *)
  engine_salt : int;  (** mixed into the engine seed by the runner *)
}

val family : direction -> family

val program : config -> self:int -> (state, msg) Slpdas_gcn.program
(** @raise Invalid_argument on [Sectors n] with [n < 1]. *)

val sink_received : state -> int list
(** Message ids the sink has collected, oldest first. *)
