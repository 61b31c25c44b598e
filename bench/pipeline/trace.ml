(* In-memory spans around calls into the library layers.

   Every layer call a workload makes goes through [call], which always
   measures the call's host time (that is how the untraced run gets its
   stage timings) and, when tracing is on, also records a span with the
   words the call allocated.  Each timed op is a root span ["op"] whose
   children are the layer calls, so a layer's self time is its span's
   duration minus the time its children cover, and the op span's self time
   is the benchmark's own glue (output checks).  Spans stay in memory and
   are written out once, at the end of the run. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** id of the enclosing span, [-1] for a root *)
  op : int;  (** timed op index; [-1] for set-up *)
  alloc_words : float;
}

type t = {
  mutable enabled : bool;
  mutable op : int;
  mutable stack : int list;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create () = { enabled = false; op = -1; stack = []; next = 0; spans = [] }

(* slp-lint: allow wall-clock *)
let now () = Unix.gettimeofday ()

(* Words allocated so far by this domain: minor allocations plus direct
   major allocations (large blocks).  [Gc.minor_words] counts the current
   minor heap exactly; [Gc.quick_stat]'s own minor count only moves at a
   minor collection, and its major count includes promoted words. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let a0 = allocated_words () in
  let start = now () in
  let finish () =
    let stop = now () in
    let alloc_words = allocated_words () -. a0 in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; name; start; stop; parent; op = t.op; alloc_words } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* [call t name f] is [(f (), host seconds)]; the seconds include the span
   bookkeeping when tracing is on, so traced minus untraced op time is the
   tracing overhead. *)
let call t name f =
  let t0 = now () in
  let v = if t.enabled then span t name f else f () in
  (v, now () -. t0)

let op t i f =
  t.op <- i;
  let v = if t.enabled then span t "op" f else f () in
  t.op <- -1;
  v

let spans t = List.rev t.spans

(* Self time and self allocation of every span: its own figures minus those
   of its direct children. *)
let self_figures spans =
  let child_time = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_time s.parent (s.stop -. s.start);
        add child_alloc s.parent s.alloc_words
      end)
    spans;
  List.map
    (fun s ->
      let get tbl = Option.value (Hashtbl.find_opt tbl s.id) ~default:0. in
      (s, s.stop -. s.start -. get child_time, s.alloc_words -. get child_alloc))
    spans

let to_json_lines oc spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start\": %.9f, \"end\": %.9f, \
         \"parent\": %d, \"op\": %d, \"alloc_words\": %.0f}\n"
        s.id s.name s.start s.stop s.parent s.op s.alloc_words)
    spans
