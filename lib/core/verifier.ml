type outcome =
  | Safe
  | Captured of { trace : int list; periods : int }

(* Slot used for the period-accounting comparison of Algorithm 1, line 10.
   The sink (and any unassigned node) never transmits, so every audible
   transmission counts as "earlier than" it: leaving such a position is a
   next-period (descending) step. *)
let slot_rank sched v =
  let s = Schedule.raw_slot sched v in
  if s = Schedule.none then max_int else s

let truncate n xs = List.filteri (fun i _ -> i < n) xs

(* One attacker step from [loc]: candidate successors with updated period and
   move accounting.  Steps the (R, H, M) budget forbids are dropped, which is
   the "trace discarded" branch of Algorithm 1.  [heard_at] supplies the
   audible list — memoised per location on the fast paths, rebuilt per call
   in the reference implementation. *)
let successors_hearing g sched ~attacker ~heard_at ~loc ~period ~moves ~history
    =
  let heard = heard_at loc in
  let candidates = attacker.Attacker.decide ~heard ~history ~current:loc in
  List.filter_map
    (fun c ->
      if c = loc || not (Slpdas_wsn.Graph.mem_edge g loc c) then None
      else if slot_rank sched loc > slot_rank sched c then
        Some (c, period + 1, 1)
      else if moves >= attacker.Attacker.m then None
      else Some (c, period, moves + 1))
    candidates

let successors g sched ~attacker ~loc ~period ~moves ~history =
  successors_hearing g sched ~attacker
    ~heard_at:(fun at -> Attacker.heard_by g sched ~at ~r:attacker.Attacker.r)
    ~loc ~period ~moves ~history

let check_args g ~safety_period ~source =
  if safety_period < 0 then invalid_arg "Verifier: negative safety period";
  if source < 0 || source >= Slpdas_wsn.Graph.n g then
    invalid_arg "Verifier: source out of range"

(* ------------------------------------------------------------------ *)
(* Reference implementation                                           *)
(* ------------------------------------------------------------------ *)

(* The original, unoptimized search: audible lists rebuilt and re-sorted per
   expansion, visited states keyed by the polymorphic
   [(loc, period, moves, history)] tuple.  Kept as the differential-testing
   oracle for the packed fast path below, as the "before" series of the
   bench's micro section, and as the fallback for attacker budgets whose
   packed state does not fit two words. *)
let verify_with_stats_reference g sched ~attacker ~safety_period ~source =
  check_args g ~safety_period ~source;
  let visited = Hashtbl.create 1024 in
  let exception Found of int list * int in
  (* Depth-first exploration; [trace_rev] carries the counterexample. *)
  let rec explore loc period moves history trace_rev =
    let key = (loc, period, moves, history) in
    if period > safety_period || Hashtbl.mem visited key then ()
    else begin
      Hashtbl.add visited key ();
      List.iter
        (fun (c, period', moves') ->
          if c = source && period' <= safety_period then
            raise (Found (List.rev (c :: trace_rev), period'));
          let history' =
            if attacker.Attacker.h > 0 then
              truncate attacker.Attacker.h (loc :: history)
            else history
          in
          explore c period' moves' history' (c :: trace_rev))
        (successors g sched ~attacker ~loc ~period ~moves ~history)
    end
  in
  let start = attacker.Attacker.start in
  match explore start 0 0 [] [ start ] with
  | () -> (Safe, Hashtbl.length visited)
  | exception Found (trace, periods) ->
    (Captured { trace; periods }, Hashtbl.length visited)

(* ------------------------------------------------------------------ *)
(* Packed-state fast path                                             *)
(* ------------------------------------------------------------------ *)

(* An attacker state is (loc, period, moves, history) with every component a
   small bounded integer: loc < n, period <= safety period, moves <= M, and
   the history a sequence of at most H locations.  The whole state therefore
   packs into a few machine words, which replaces the polymorphic hash (a
   full traversal of the tuple and list per probe) with integer hashing.

   Layout: [base] packs (loc, period, moves); [hist] packs the history as H
   fields of [bits_loc] bits, most recent in the low bits, empty slots 0
   (locations are stored as [v + 1]).  Pushing a location onto the history is
   then one shift-or-mask — no list truncation on the key path.  When
   [hist] and [base] fit one word together the visited set is an int-keyed
   table; otherwise an (int * int)-keyed one.  Budgets too large even for
   that (H * bits_loc > 62) fall back to the reference implementation. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* The packed key's low bits (period, moves, location) are exactly the
     fast-varying components, so the identity is a good hash and skips the
     generic mixing on every probe. *)
  let hash x = x land max_int
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (b + (a * 0x1000193)) land max_int
end)

(* Smallest [b >= 1] with [v < 2^b]. *)
let bits_for v =
  let rec go b = if v < 1 lsl b then b else go (b + 1) in
  go 1

type packing = { bits_loc : int; hist_mask : int (* 0 when H = 0 *) }

(* [take n tl hd] is [hd :: tl] cut to [n + 1] elements: the history push
   without [truncate]'s closure and full-list traversal. *)
let rec take n xs hd =
  hd
  :: (match xs with x :: tl when n > 0 -> take (n - 1) tl x | _ -> [])

(* A visited set keyed by the packed state; [None] when the state does not
   fit two words. *)
let packed_visited ~n ~safety_period ~attacker =
  let h = attacker.Attacker.h in
  let bits_loc = bits_for n in
  let bits_p = bits_for safety_period in
  let bits_m = bits_for attacker.Attacker.m in
  let bits_hist = bits_loc * h in
  let bits_base = bits_loc + bits_p + bits_m in
  if bits_hist > 62 || bits_base > 62 then None
  else begin
    let base ~loc ~period ~moves =
      (((loc lsl bits_p) lor period) lsl bits_m) lor moves
    in
    let packing =
      { bits_loc; hist_mask = (if h = 0 then 0 else (1 lsl bits_hist) - 1) }
    in
    (* Small initial capacity: deterministic attackers explore a handful of
       states and the table init is a measurable share of a short verify;
       branching searches grow the table as needed. *)
    let mem_add, length =
      if bits_hist + bits_base <= 62 then begin
        let tbl = Int_tbl.create 64 in
        ( (fun ~loc ~period ~moves ~hist ->
            let key = (hist lsl bits_base) lor base ~loc ~period ~moves in
            Int_tbl.mem tbl key
            || begin
                 Int_tbl.add tbl key ();
                 false
               end),
          fun () -> Int_tbl.length tbl )
      end
      else begin
        let tbl = Pair_tbl.create 64 in
        ( (fun ~loc ~period ~moves ~hist ->
            let key = (hist, base ~loc ~period ~moves) in
            Pair_tbl.mem tbl key
            || begin
                 Pair_tbl.add tbl key ();
                 false
               end),
          fun () -> Pair_tbl.length tbl )
      end
    in
    Some (packing, mem_add, length)
  end

let verify_with_stats g sched ~attacker ~safety_period ~source =
  check_args g ~safety_period ~source;
  match
    packed_visited ~n:(Slpdas_wsn.Graph.n g) ~safety_period ~attacker
  with
  | None -> verify_with_stats_reference g sched ~attacker ~safety_period ~source
  | Some (packing, mem_add, visited_count) ->
    let h = attacker.Attacker.h in
    let heard_at = Attacker.hearing g sched ~r:attacker.Attacker.r in
    let exception Found of int list * int in
    (* [hist] mirrors [history] in packed form; both are threaded because
       the decision function consumes the list while the visited set keys on
       the integer. *)
    let rec explore loc period moves history hist trace_rev =
      if period > safety_period || mem_add ~loc ~period ~moves ~hist then ()
      else
        List.iter
          (fun (c, period', moves') ->
            if c = source && period' <= safety_period then
              raise (Found (List.rev (c :: trace_rev), period'));
            let history', hist' =
              if h > 0 then
                ( take (h - 1) history loc,
                  ((hist lsl packing.bits_loc) lor (loc + 1))
                  land packing.hist_mask )
              else (history, 0)
            in
            explore c period' moves' history' hist' (c :: trace_rev))
          (successors_hearing g sched ~attacker ~heard_at ~loc ~period ~moves
             ~history)
    in
    let start = attacker.Attacker.start in
    (match explore start 0 0 [] 0 [ start ] with
    | () -> (Safe, visited_count ())
    | exception Found (trace, periods) ->
      (Captured { trace; periods }, visited_count ()))

let verify g sched ~attacker ~safety_period ~source =
  fst (verify_with_stats g sched ~attacker ~safety_period ~source)

let is_slp_aware g sched ~attacker ~safety_period ~source =
  match verify g sched ~attacker ~safety_period ~source with
  | Safe -> true
  | Captured _ -> false

let attacker_traces g sched ~attacker ~safety_period ~max_traces =
  if safety_period < 0 then invalid_arg "Verifier: negative safety period";
  if max_traces <= 0 then invalid_arg "Verifier.attacker_traces: max_traces";
  let heard_at = Attacker.hearing g sched ~r:attacker.Attacker.r in
  let traces = ref [] in
  let count = ref 0 in
  let emit trace_rev =
    if !count < max_traces then begin
      traces := List.rev trace_rev :: !traces;
      incr count
    end
  in
  (* Plain enumeration, no memoization: each maximal extension is one
     trace.  Cycles are bounded by the period budget (a revisited location
     costs periods or moves, both finite). *)
  let rec extend loc period moves history trace_rev =
    if !count >= max_traces then ()
    else begin
      let steps =
        List.filter
          (fun (_, period', _) -> period' <= safety_period)
          (successors_hearing g sched ~attacker ~heard_at ~loc ~period ~moves
             ~history)
      in
      match steps with
      | [] -> emit trace_rev
      | steps ->
        List.iter
          (fun (c, period', moves') ->
            let history' =
              if attacker.Attacker.h > 0 then
                truncate attacker.Attacker.h (loc :: history)
              else history
            in
            extend c period' moves' history' (c :: trace_rev))
          steps
    end
  in
  let start = attacker.Attacker.start in
  extend start 0 0 [] [ start ];
  List.rev !traces

let capture_time_reference g sched ~attacker ~source ~limit =
  check_args g ~safety_period:limit ~source;
  let heard_at = Attacker.hearing g sched ~r:attacker.Attacker.r in
  (* Track the best (lowest) period at which each state was reached; explore
     only improvements, so the search finds the minimum capture period. *)
  let best = Hashtbl.create 1024 in
  let best_capture = ref None in
  let rec explore loc period moves history trace_rev =
    let bound =
      match !best_capture with Some (p, _) -> p - 1 | None -> limit
    in
    if period > bound then ()
    else begin
      let key = (loc, moves, history) in
      let improves =
        match Hashtbl.find_opt best key with
        | Some p -> period < p
        | None -> true
      in
      if improves then begin
        Hashtbl.replace best key period;
        List.iter
          (fun (c, period', moves') ->
            let trace_rev' = c :: trace_rev in
            if c = source && period' <= bound then
              best_capture := Some (period', List.rev trace_rev')
            else begin
              let history' =
                if attacker.Attacker.h > 0 then
                  truncate attacker.Attacker.h (loc :: history)
                else history
              in
              explore c period' moves' history' trace_rev'
            end)
          (successors_hearing g sched ~attacker ~heard_at ~loc ~period ~moves
             ~history)
      end
    end
  in
  let start = attacker.Attacker.start in
  explore start 0 0 [] [ start ];
  match !best_capture with
  | Some (p, trace) -> Some (p, trace)
  | None -> None

(* Best-period map keyed by the packed (loc, moves, history) state — period
   is the minimized {e value} here, unlike {!packed_visited} where it is part
   of the key.  [improve] returns whether [period] beats the stored best and
   records it when it does.  [None] when the history does not pack. *)
let packed_best ~n ~attacker =
  let h = attacker.Attacker.h in
  let bits_loc = bits_for n in
  let bits_m = bits_for attacker.Attacker.m in
  let bits_hist = bits_loc * h in
  let bits_base = bits_loc + bits_m in
  if bits_hist > 62 || bits_base > 62 then None
  else begin
    let base ~loc ~moves = (loc lsl bits_m) lor moves in
    let packing =
      { bits_loc; hist_mask = (if h = 0 then 0 else (1 lsl bits_hist) - 1) }
    in
    let improve =
      if bits_hist + bits_base <= 62 then begin
        let tbl = Int_tbl.create 64 in
        fun ~loc ~moves ~hist ~period ->
          let key = (hist lsl bits_base) lor base ~loc ~moves in
          match Int_tbl.find_opt tbl key with
          | Some p when period >= p -> false
          | _ ->
            Int_tbl.replace tbl key period;
            true
      end
      else begin
        let tbl = Pair_tbl.create 64 in
        fun ~loc ~moves ~hist ~period ->
          let key = (hist, base ~loc ~moves) in
          match Pair_tbl.find_opt tbl key with
          | Some p when period >= p -> false
          | _ ->
            Pair_tbl.replace tbl key period;
            true
      end
    in
    Some (packing, improve)
  end

let capture_time g sched ~attacker ~source ~limit =
  check_args g ~safety_period:limit ~source;
  match packed_best ~n:(Slpdas_wsn.Graph.n g) ~attacker with
  | None -> capture_time_reference g sched ~attacker ~source ~limit
  | Some (packing, improve) ->
    let h = attacker.Attacker.h in
    let heard_at = Attacker.hearing g sched ~r:attacker.Attacker.r in
    let best_capture = ref None in
    (* Same exploration order as the reference, with the polymorphic best
       table replaced by the packed map; [history]/[hist] are threaded
       together as in {!verify_with_stats}. *)
    let rec explore loc period moves history hist trace_rev =
      let bound =
        match !best_capture with Some (p, _) -> p - 1 | None -> limit
      in
      if period > bound then ()
      else if improve ~loc ~moves ~hist ~period then
        List.iter
          (fun (c, period', moves') ->
            let trace_rev' = c :: trace_rev in
            if c = source && period' <= bound then
              best_capture := Some (period', List.rev trace_rev')
            else begin
              let history', hist' =
                if h > 0 then
                  ( take (h - 1) history loc,
                    ((hist lsl packing.bits_loc) lor (loc + 1))
                    land packing.hist_mask )
                else (history, 0)
              in
              explore c period' moves' history' hist' trace_rev'
            end)
          (successors_hearing g sched ~attacker ~heard_at ~loc ~period ~moves
             ~history)
    in
    let start = attacker.Attacker.start in
    explore start 0 0 [] 0 [ start ];
    (match !best_capture with
    | Some (p, trace) -> Some (p, trace)
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Certificates and incremental re-verification                       *)
(* ------------------------------------------------------------------ *)

type state = { loc : int; period : int; moves : int; history : int list }

type certificate = { cert_outcome : outcome; cert_visited : state array }

(* Same search as {!verify_with_stats} (packed fast path, reference
   fallback), additionally recording every state at the moment it is
   expanded.  For a [Safe] outcome the record is the complete reachable set
   within the period budget — the safety {e certificate} the incremental
   re-verifier consumes; for [Captured] it is the prefix the DFS expanded
   before finding the counterexample. *)
let verify_certified g sched ~attacker ~safety_period ~source =
  check_args g ~safety_period ~source;
  let recorded = ref [] in
  let record loc period moves history =
    recorded := { loc; period; moves; history } :: !recorded
  in
  let heard_at = Attacker.hearing g sched ~r:attacker.Attacker.r in
  let exception Found of int list * int in
  let outcome =
    match
      packed_visited ~n:(Slpdas_wsn.Graph.n g) ~safety_period ~attacker
    with
    | Some (packing, mem_add, _) ->
      let h = attacker.Attacker.h in
      let rec explore loc period moves history hist trace_rev =
        if period > safety_period || mem_add ~loc ~period ~moves ~hist then ()
        else begin
          record loc period moves history;
          List.iter
            (fun (c, period', moves') ->
              if c = source && period' <= safety_period then
                raise (Found (List.rev (c :: trace_rev), period'));
              let history', hist' =
                if h > 0 then
                  ( take (h - 1) history loc,
                    ((hist lsl packing.bits_loc) lor (loc + 1))
                    land packing.hist_mask )
                else (history, 0)
              in
              explore c period' moves' history' hist' (c :: trace_rev))
            (successors_hearing g sched ~attacker ~heard_at ~loc ~period
               ~moves ~history)
        end
      in
      let start = attacker.Attacker.start in
      (match explore start 0 0 [] 0 [ start ] with
      | () -> Safe
      | exception Found (trace, periods) -> Captured { trace; periods })
    | None ->
      let visited = Hashtbl.create 1024 in
      let rec explore loc period moves history trace_rev =
        let key = (loc, period, moves, history) in
        if period > safety_period || Hashtbl.mem visited key then ()
        else begin
          Hashtbl.add visited key ();
          record loc period moves history;
          List.iter
            (fun (c, period', moves') ->
              if c = source && period' <= safety_period then
                raise (Found (List.rev (c :: trace_rev), period'));
              let history' =
                if attacker.Attacker.h > 0 then
                  truncate attacker.Attacker.h (loc :: history)
                else history
              in
              explore c period' moves' history' (c :: trace_rev))
            (successors_hearing g sched ~attacker ~heard_at ~loc ~period
               ~moves ~history)
        end
      in
      let start = attacker.Attacker.start in
      (match explore start 0 0 [] [ start ] with
      | () -> Safe
      | exception Found (trace, periods) -> Captured { trace; periods })
  in
  { cert_outcome = outcome; cert_visited = Array.of_list (List.rev !recorded) }

let changed_slots a b =
  if Schedule.n a <> Schedule.n b then
    invalid_arg "Verifier.changed_slots: schedule size mismatch";
  let acc = ref [] in
  for v = Schedule.n a - 1 downto 0 do
    if not (Option.equal Int.equal (Schedule.slot a v) (Schedule.slot b v))
    then acc := v :: !acc
  done;
  !acc

type reverify_method = Unchanged | Incremental of int | Full of int

(* Soundness of the frontier restriction.  A transition out of location
   [loc] reads only the slots of [loc] and its neighbours ([heard_by] is
   one-hop; the period comparison involves [loc] and the chosen neighbour),
   so with [A] = closed neighbourhood of the changed nodes, every state
   whose location lies outside [A] steps identically under old and new
   schedules.  For a [Safe] baseline the certificate's visited set [V] is
   the {e complete} old reachable set within the period budget, closed
   under old transitions; so along any new-schedule path, the moment before
   behaviour can first diverge the walk sits at a state of [V] whose
   location is in [A] — one of the seeds below.  Exploring from every seed,
   and cutting any reached state that is both outside [A] and in [V]
   (its subtree was proven safe and re-enters [A] only through other
   seeds), therefore finds a capture iff the full search would.  Any
   capture found is re-derived by a full verify so the returned
   counterexample is canonical (seeds need not be new-reachable, so a
   capture seen here may be spurious — Safe verdicts never are). *)
let reverify g sched ~baseline ~changed ~attacker ~safety_period ~source =
  check_args g ~safety_period ~source;
  let n = Slpdas_wsn.Graph.n g in
  let full () =
    let outcome, explored =
      verify_with_stats g sched ~attacker ~safety_period ~source
    in
    (outcome, Full explored)
  in
  match changed with
  | [] -> (baseline.cert_outcome, Unchanged)
  | _ ->
    let affected = Array.make n false in
    List.iter
      (fun c ->
        if c < 0 || c >= n then
          invalid_arg "Verifier.reverify: changed node out of range";
        affected.(c) <- true;
        Array.iter
          (fun v -> affected.(v) <- true)
          (Slpdas_wsn.Graph.neighbours g c))
      changed;
    let touched =
      Array.exists (fun st -> affected.(st.loc)) baseline.cert_visited
    in
    if not touched then (baseline.cert_outcome, Unchanged)
    else begin
      match baseline.cert_outcome with
      | Captured _ ->
        (* A partial (counterexample) certificate proves nothing about the
           unexplored remainder; only an untouched visited prefix lets the
           old verdict stand (the DFS would replay identically). *)
        full ()
      | Safe ->
        let old_visited =
          Hashtbl.create ((2 * Array.length baseline.cert_visited) + 1)
        in
        Array.iter
          (fun st ->
            Hashtbl.replace old_visited
              (st.loc, st.period, st.moves, st.history)
              ())
          baseline.cert_visited;
        let heard_at = Attacker.hearing g sched ~r:attacker.Attacker.r in
        let new_visited = Hashtbl.create 1024 in
        let expanded = ref 0 in
        let exception Found in
        let rec explore loc period moves history =
          let key = (loc, period, moves, history) in
          if period > safety_period || Hashtbl.mem new_visited key then ()
          else if (not affected.(loc)) && Hashtbl.mem old_visited key then ()
          else begin
            Hashtbl.add new_visited key ();
            incr expanded;
            List.iter
              (fun (c, period', moves') ->
                if c = source && period' <= safety_period then raise Found;
                let history' =
                  if attacker.Attacker.h > 0 then
                    truncate attacker.Attacker.h (loc :: history)
                  else history
                in
                explore c period' moves' history')
              (successors_hearing g sched ~attacker ~heard_at ~loc ~period
                 ~moves ~history)
          end
        in
        (try
           Array.iter
             (fun st ->
               if affected.(st.loc) then
                 explore st.loc st.period st.moves st.history)
             baseline.cert_visited;
           (Safe, Incremental !expanded)
         with Found -> full ())
    end
