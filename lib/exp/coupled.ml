(* Experiment plumbing for coupled sharded runs.

   A coupled run (Slpdas_sim.Shard.run_coupled) distributes the event bus
   over one engine per cell, so a global observer — an attacker, a trace
   exporter — cannot simply subscribe to "the" engine.  The recorder here
   reconstructs the exact global bus: each cell's monitor records every
   event together with the stable key of the queue entry being processed
   when it was emitted (Engine.processing_key), and a final k-way merge of
   the per-cell buffers by head key yields precisely the order the
   unsharded sequential engine's bus emits (see [events]).

   Attackers then run as pure folds over the merged stream
   (Slpdas_attack.Hunter.fold) instead of live engine subscribers: a live
   hunter calls Engine.stop and emits Attacker_move into the bus, both of
   which are global decisions no single cell may take mid-window.  The
   fold reproduces the live hunter's verdict — once captured it ignores
   the stream's tail, exactly as the stopped engine never produces one. *)

module Engine = Slpdas_sim.Engine
module Event = Slpdas_sim.Event
module Shard = Slpdas_sim.Shard

type 'm entry = { e_time : float; e_k1 : int; e_k2 : int; e_event : 'm Event.t }

type 'm buf = { mutable items : 'm entry array; mutable len : int }

let buf_create () = { items = [||]; len = 0 }

let buf_push b entry =
  if b.len = Array.length b.items then begin
    let cap = max 64 (2 * Array.length b.items) in
    let items = Array.make cap entry in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end;
  b.items.(b.len) <- entry;
  b.len <- b.len + 1

type 'm recorder = { mutable cells : 'm buf array }

let recorder () = { cells = [||] }

(* Monitors run sequentially before the windows start, so growing the
   per-cell slot array here is single-threaded; during the run each cell's
   subscriber only touches its own buffer (the pool barrier publishes the
   writes to the draining coordinator). *)
let ensure t id =
  if id >= Array.length t.cells then begin
    let cells = Array.init (id + 1) (fun _ -> buf_create ()) in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells
  end;
  t.cells.(id)

let monitor t ~cell engine =
  let b = ensure t cell.Shard.id in
  Engine.subscribe engine (fun event ->
      let e_k1, e_k2 = Engine.processing_key engine in
      buf_push b { e_time = Event.time event; e_k1; e_k2; e_event = event })

(* Tap a sequential engine's bus; the thunk returns everything recorded so
   far, in emission order (which for a single engine IS the global order). *)
let tap engine =
  let b = buf_create () in
  Engine.subscribe engine (fun event ->
      buf_push b { e_time = Event.time event; e_k1 = 0; e_k2 = 0; e_event = event });
  fun () -> Array.init b.len (fun i -> b.items.(i).e_event)

(* Each cell's buffer is in that cell's pop order: the engine pops its
   heap by (time, k1, k2), and every emission carries the key of the event
   being processed.  The sequential engine's heap holds the union of the
   cells' events, so its next pop is the least of the cells' next pops: a
   k-way merge by head key reproduces its bus.  A global sort would not:
   an event processed under key K that pushes a zero-delay event under a
   smaller key pops that event after K, and a sort would move its
   emissions before K's.  Ties (harness callbacks share the -1 lane across
   cells) go to the lower cell index, which matches the sequential engine
   whenever same-time harness emissions are per-cell independent (they are
   for every workload in this repository: faults emit through the engine's
   own key, and monitors never emit). *)
let events t =
  let cells = t.cells in
  let heads = Array.make (Array.length cells) 0 in
  let head c = cells.(c).items.(heads.(c)) in
  let earlier a b =
    match Float.compare a.e_time b.e_time with
    | 0 -> (
      match Int.compare a.e_k1 b.e_k1 with 0 -> a.e_k2 < b.e_k2 | c -> c < 0)
    | c -> c < 0
  in
  let total = Array.fold_left (fun acc b -> acc + b.len) 0 cells in
  Array.init total (fun _ ->
      let best = ref (-1) in
      Array.iteri
        (fun c b ->
          if heads.(c) < b.len && (!best < 0 || earlier (head c) (head !best))
          then best := c)
        cells;
      let e = head !best in
      heads.(!best) <- heads.(!best) + 1;
      e.e_event)

let capture ?domains ?impl ?(hunter = Slpdas_attack.Model.Local)
    ?(hunter_seed = 0) plan ~link ~seed ~program ~until ~start ~source
    ~message_id () =
  let t = recorder () in
  let _, merged =
    Shard.run_coupled ?domains ?impl ~monitor:(monitor t) plan ~link ~seed
      ~program ~until
  in
  let graph = plan.Shard.base.Slpdas_wsn.Topology.graph in
  let positions = plan.Shard.base.Slpdas_wsn.Topology.positions in
  ( Slpdas_attack.Hunter.fold hunter ~graph ~positions ~start ~source
      ~seed:hunter_seed ~message_id (events t),
    merged )
