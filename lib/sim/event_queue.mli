(** The engine's pending-event queue: a binary min-heap ordered by one
    inline key [(at, k1, k2)] — time first ([Float.compare]), then [k1],
    then [k2].

    Keys are stored unboxed beside their events and compared by
    monomorphic code, so a push allocates no event record and neither
    peeking nor popping allocates an option.  The engine gives every event
    a distinct key (an uncoupled engine pushes [(at, 0, seq)], a coupled
    one its stable [(at, k1, k2)]), which makes the pop order independent
    of the heap's internal layout. *)

type 'a t

val create : unit -> 'a t
(** An empty queue. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> at:float -> k1:int -> k2:int -> 'a -> unit
(** [push q ~at ~k1 ~k2 x] inserts [x] under key [(at, k1, k2)].
    Amortised O(log n). *)

val min_at : 'a t -> float

val min_k1 : 'a t -> int

val min_k2 : 'a t -> int
(** [min_at], [min_k1] and [min_k2] read the minimum key in place.
    @raise Invalid_argument on an empty queue. *)

val min_before : 'a t -> at:float -> k1:int -> k2:int -> bool
(** [min_before q ~at ~k1 ~k2] is [true] iff [q] is non-empty and its
    minimum key orders strictly before [(at, k1, k2)]. *)

val pop : 'a t -> 'a
(** Remove and return the event under the minimum key.
    @raise Invalid_argument on an empty queue. *)
