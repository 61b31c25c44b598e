(** TDMA data-aggregation slot assignments.

    A schedule maps every node to at most one transmission slot.  Within one
    TDMA period, slots fire in increasing order, so the DAS property
    [slot(child) < slot(parent)] makes data converge towards the sink in a
    single period.  The sink itself never transmits application data
    (Defs. 2–3 assign slots to [V \ {sink}]); during construction it
    advertises the {e virtual} slot [∆] from which its children derive
    theirs.

    Slots are plain integers; construction starts at [∆] (Table I: 100) and
    decreases away from the sink.  The equivalent sender-set view
    [⟨σ1, …, σl⟩] of the paper is available through {!sender_sets}. *)

type t

val none : int
(** [none] ([min_int]) is the unassigned marker {!raw_slot} returns.  It is
    never a slot: {!assign} rejects it. *)

val create : n:int -> sink:int -> t
(** [create ~n ~sink] is the empty schedule over [n] nodes: no node has a
    slot.  @raise Invalid_argument if [sink] is out of range. *)

val n : t -> int

val sink : t -> int

val assign : t -> int -> int -> unit
(** [assign t v s] gives node [v] slot [s], replacing any previous slot.
    @raise Invalid_argument if [v] is the sink or out of range, or if
    [s = none]. *)

val clear_slot : t -> int -> unit

val raw_slot : t -> int -> int
(** [raw_slot t v] is [v]'s slot, or {!none} if unassigned (always [none]
    for the sink) — {!slot} without the option box, for per-node loops on
    hot paths.  Compare against [none] before using the value as a slot.
    @raise Invalid_argument if [v] is out of range. *)

val slot : t -> int -> int option
(** [slot t v] is [v]'s slot, or [None] if unassigned (always [None] for the
    sink). *)

val slot_exn : t -> int -> int
(** @raise Invalid_argument if unassigned. *)

val assigned : t -> int -> bool

val complete : t -> bool
(** [complete t] iff every non-sink node has a slot (condition 2 of Defs.
    2–3). *)

val min_slot : t -> int option
(** Smallest assigned slot, if any node is assigned. *)

val max_slot : t -> int option

val sender_sets : t -> (int * int list) list
(** [sender_sets t] is the paper's [⟨σ1, …, σl⟩] view: the list of
    [(slot, senders)] pairs in increasing slot order, senders sorted.  Only
    non-empty sets appear. *)

val copy : t -> t

val equal : t -> t -> bool

val digest : t -> string
(** A content digest of the schedule — node count, sink, and every slot
    assignment — stable across machines and OCaml versions (built on
    {!Slpdas_util.Fnv}, never [Hashtbl.hash]), so it can key persistent
    verification caches.  [digest a = digest b] coincides with {!equal} up
    to hash collisions (negligible at 128 bits).  Memoized: computing it on
    an unchanged schedule is a field read; {!assign} and {!clear_slot}
    invalidate the memo.  The string starts with an ["s1-"] version tag so
    future encoding changes cannot alias old keys. *)

val of_alist : n:int -> sink:int -> (int * int) list -> t
(** [of_alist ~n ~sink assocs] builds a schedule from [(node, slot)] pairs.
    @raise Invalid_argument on duplicates, the sink, or out-of-range nodes. *)

val to_alist : t -> (int * int) list
(** Assigned [(node, slot)] pairs in node order. *)

val to_string : t -> string
(** Serialise to a stable line-oriented text format (versioned header, then
    one [node slot] pair per line).  Round-trips through {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} format; [Error] carries a human-readable reason
    (bad header, malformed line, out-of-range or duplicate node, the
    reserved slot {!none}, …). *)

val pp : Format.formatter -> t -> unit

val pp_grid : dim:int -> Format.formatter -> t -> unit
(** Render the slot field of a [dim × dim] grid topology as a matrix — the
    most useful debugging view for the paper's layouts. *)
