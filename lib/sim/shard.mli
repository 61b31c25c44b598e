(** Spatial sharding: run regions of one deployment in parallel.

    A {!plan} partitions a topology's nodes into a [cells_x × cells_y] grid
    of spatial cells by node position and materialises each cell as an
    induced sub-topology (local dense ids, intra-cell radio links).  Radio
    links crossing a cell border are recorded as {e boundary ports}: each
    cell keeps, per node, the cut neighbours' global ids and their positions
    inside the node's full global adjacency row.

    {!run_coupled} keeps the cells radio-coupled over the cut links and runs
    them as a conservative parallel discrete-event simulation: bounded
    lookahead windows of width {!Engine.propagation_delay} (the uniform link
    latency, hence the classic null-message-free conservative horizon), with
    boundary deliveries exchanged at window barriers through per-cell-pair
    deterministic mailboxes ({!Mailbox}).

    Determinism contract: a coupled run is {e byte-identical} — counters,
    per-node states, event streams, capture outcomes, JSON — to the
    unsharded sequential engine built by {!sequential_engine} over the base
    deployment, at any cell count and any domain count.  The mechanism is
    content-based event ordering (stable [(time, source, per-source
    counter)] keys instead of push order) plus per-node RNG lanes split off
    the master seed in global node order, so neither event interleaving
    nor draw sequences depend on the decomposition; [test_engine_equiv]
    oracles the equivalence differentially.  Limits: airtime interference
    is rejected under coupling (cross-boundary jamming has zero latency, so
    no positive lookahead exists), and fault-layer {e link overrides} must
    not target cut edges (crash/revive and the global loss floor are fully
    supported). *)

type cell = {
  id : int;  (** index into {!plan.cells}; row-major over the cell grid *)
  nodes : int array;  (** member nodes as {e global} ids, ascending *)
  topology : Slpdas_wsn.Topology.t;
      (** induced sub-topology over local ids [0 .. Array.length nodes - 1];
          local id [i] is global node [nodes.(i)] *)
  ports_off : int array;
      (** CSR offsets (length [n_local + 1]) into the flat port rows: node
          [v]'s cut edges are ports [ports_off.(v) .. ports_off.(v+1) - 1] *)
  ports_pos : int array;
      (** position of the cut neighbour inside the node's {e full global}
          adjacency row, so local rows and ports merge back into global
          row order *)
  ports_target : int array;  (** cut neighbour's global id *)
  boundary_nodes : int;  (** member nodes with at least one cut edge *)
}

type plan = {
  base : Slpdas_wsn.Topology.t;
  cells_x : int;
  cells_y : int;
  cells : cell array;  (** row-major; empty cells are dropped *)
  cut_links : int;
      (** radio links crossing a cell border; each contributes one port to
          either end's cell *)
  cell_of_node : int array;
      (** global node id -> index into [cells] of its hosting cell *)
  local_index : int array;  (** global node id -> local id within its cell *)
}

val plan : cells_x:int -> cells_y:int -> Slpdas_wsn.Topology.t -> plan
(** [plan ~cells_x ~cells_y topology] bins nodes into [cells_x × cells_y]
    equal spatial cells over the bounding box of the node positions and
    builds each cell's induced sub-topology and boundary ports via the CSR
    bulk path (O(n + m) total).  Within a cell, nodes keep their relative
    (ascending global id) order, so local adjacency stays sorted.  A cell's
    topology is a region of the base deployment, not a deployment of its
    own: its [source] and [sink] both name local node 0 and no engine reads
    them.
    @raise Invalid_argument if [cells_x < 1] or [cells_y < 1]. *)

val boundary_nodes : plan -> int
(** Total nodes with at least one cut edge, over all cells. *)

val sequential_engine :
  ?impl:Engine.impl ->
  topology:Slpdas_wsn.Topology.t ->
  link:Link_model.t ->
  seed:int ->
  program:(self:int -> ('s, 'm) Slpdas_gcn.program) ->
  unit ->
  ('s, 'm) Engine.t
(** The unsharded sequential reference for coupled runs: a single engine
    over the whole deployment with the identity coupling (stable event
    ordering, one RNG lane per node split off [Rng.create seed] in node
    order, no ports).  Drive it with {!Engine.run_until}; a
    {!run_coupled} of the same [(topology, link, seed, program, until)] is
    byte-identical to it whatever the cell and domain counts. *)

val run_coupled :
  ?domains:int ->
  ?impl:Engine.impl ->
  ?arm:(cell:cell -> ('s, 'm) Engine.t -> unit) ->
  ?monitor:(cell:cell -> ('s, 'm) Engine.t -> unit) ->
  ?inspect:(cell:cell -> ('s, 'm) Engine.t -> unit) ->
  plan ->
  link:Link_model.t ->
  seed:int ->
  program:(self:int -> ('s, 'm) Slpdas_gcn.program) ->
  until:float ->
  Event.counters array * Event.counters
(** [run_coupled plan ~link ~seed ~program ~until] runs the whole deployment
    radio-coupled: one engine per cell (programs receive {e global} selves
    and see global ids in triggers and events), stepped over the domain pool
    in conservative lookahead windows.  Each round, all cells run the window
    [\[t, t + propagation_delay)] anchored at the globally earliest pending
    event, then boundary deliveries are exchanged at the barrier; windows
    repeat until every pending event lies beyond [until].

    [monitor] is called per cell before [arm] (subscribe observers there);
    [arm] may schedule harness callbacks and faults ({e local} node ids —
    use [plan.cell_of_node]/[plan.local_index] to address a global node, and
    never set a link override on a cut edge); [inspect] runs after the final
    barrier, in cell order, for state extraction.  Returns per-cell counters
    (cell order) and their input-order merge.  Results are independent of
    [domains].

    A cell stopped with {!Engine.stop} (by a monitor, a harness callback or
    [arm]) ends the whole run at the barrier of the window it stopped in:
    the stopped cell has run up to and including the event that stopped it,
    every other cell has run all its events before that window's horizon —
    at most one propagation delay past the earliest event of the window —
    and no later ones, and no cell is advanced to [until].  A cell stopped
    before the first window ends the run before any event runs. *)
