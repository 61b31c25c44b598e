type target =
  | Node of int
  | Random_nodes of int
  | Region of { x0 : float; y0 : float; x1 : float; y1 : float }
  | All_crashed

type action =
  | Crash of target
  | Revive of target
  | Link_down of { a : int; b : int }
  | Degrade of { a : int; b : int; loss : float }
  | Restore_link of { a : int; b : int }
  | Loss_burst of { loss : float; duration : float }

type entry = { at : float; action : action }

type t = entry list

let entry ~at action = { at; action }

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                    *)
(* ------------------------------------------------------------------ *)

let target_to_string = function
  | Node v -> Printf.sprintf "node=%d" v
  | Random_nodes k -> Printf.sprintf "k=%d" k
  | Region { x0; y0; x1; y1 } ->
    Printf.sprintf "region=%g,%g,%g,%g" x0 y0 x1 y1
  | All_crashed -> "all"

let action_to_string = function
  | Crash tg -> ("crash", target_to_string tg)
  | Revive tg -> ("revive", target_to_string tg)
  | Link_down { a; b } -> ("linkdown", Printf.sprintf "%d-%d" a b)
  | Degrade { a; b; loss } -> ("degrade", Printf.sprintf "%d-%d,%g" a b loss)
  | Restore_link { a; b } -> ("restore", Printf.sprintf "%d-%d" a b)
  | Loss_burst { loss; duration } ->
    ("burst", Printf.sprintf "%g,%g" loss duration)

let to_string plan =
  String.concat ";"
    (List.map
       (fun { at; action } ->
         let kind, args = action_to_string action in
         Printf.sprintf "%s@%g:%s" kind at args)
       plan)

let ( let* ) = Result.bind

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" what s)

let parse_non_negative what s =
  let* f = parse_float what s in
  if Float.is_finite f && f >= 0.0 then Ok f
  else
    Error
      (Printf.sprintf "%s must be finite and >= 0, got %S" what (String.trim s))

(* NaN fails both comparisons, so it is rejected with the out-of-range
   values. *)
let parse_probability what s =
  let* f = parse_float what s in
  if f >= 0.0 && f <= 1.0 then Ok f
  else Error (Printf.sprintf "%s must be in [0, 1], got %S" what (String.trim s))

(* A box side may be infinite (an unbounded region), but a NaN side would
   silently select no node. *)
let parse_bound what s =
  let* f = parse_float what s in
  if Float.is_nan f then Error (Printf.sprintf "%s: bad number %S" what s)
  else Ok f

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: bad integer %S" what s)

let parse_edge what s =
  match String.split_on_char '-' (String.trim s) with
  | [ a; b ] ->
    let* a = parse_int what a in
    let* b = parse_int what b in
    Ok (a, b)
  | _ -> Error (Printf.sprintf "%s: expected A-B, got %S" what s)

let parse_target s =
  let s = String.trim s in
  if s = "all" then Ok All_crashed
  else begin
    match String.index_opt s '=' with
    | None -> Error (Printf.sprintf "target: expected node=…, k=…, region=… or all, got %S" s)
    | Some i ->
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      (match key with
      | "node" ->
        let* v = parse_int "target node" v in
        Ok (Node v)
      | "k" ->
        let* k = parse_int "target k" v in
        if k < 0 then Error (Printf.sprintf "target k must be >= 0, got %d" k)
        else Ok (Random_nodes k)
      | "region" ->
        (match String.split_on_char ',' v with
        | [ x0; y0; x1; y1 ] ->
          let* x0 = parse_bound "region x0" x0 in
          let* y0 = parse_bound "region y0" y0 in
          let* x1 = parse_bound "region x1" x1 in
          let* y1 = parse_bound "region y1" y1 in
          Ok (Region { x0; y0; x1; y1 })
        | _ -> Error (Printf.sprintf "region: expected x0,y0,x1,y1, got %S" v))
      | _ -> Error (Printf.sprintf "target: unknown key %S" key))
  end

let parse_entry s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "entry %S: missing '@'" s)
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match String.index_opt rest ':' with
    | None -> Error (Printf.sprintf "entry %S: missing ':'" s)
    | Some j ->
      let* at = parse_non_negative "time" (String.sub rest 0 j) in
      let args = String.sub rest (j + 1) (String.length rest - j - 1) in
      let* action =
        match kind with
        | "crash" ->
          let* tg = parse_target args in
          (match tg with
          | All_crashed -> Error "crash: target 'all' is unsupported"
          | _ -> Ok (Crash tg))
        | "revive" ->
          let* tg = parse_target args in
          (match tg with
          | Random_nodes _ -> Error "revive: target k=… is unsupported"
          | _ -> Ok (Revive tg))
        | "linkdown" ->
          let* a, b = parse_edge "linkdown" args in
          Ok (Link_down { a; b })
        | "degrade" ->
          (match String.split_on_char ',' args with
          | [ edge; p ] ->
            let* a, b = parse_edge "degrade" edge in
            let* loss = parse_probability "degrade loss" p in
            Ok (Degrade { a; b; loss })
          | _ -> Error (Printf.sprintf "degrade: expected A-B,p, got %S" args))
        | "restore" ->
          let* a, b = parse_edge "restore" args in
          Ok (Restore_link { a; b })
        | "burst" ->
          (match String.split_on_char ',' args with
          | [ p; d ] ->
            let* loss = parse_probability "burst loss" p in
            let* duration = parse_non_negative "burst duration" d in
            Ok (Loss_burst { loss; duration })
          | _ -> Error (Printf.sprintf "burst: expected p,duration, got %S" args))
        | _ -> Error (Printf.sprintf "unknown fault kind %S" kind)
      in
      Ok { at; action })

let of_string s =
  let items =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun acc item ->
      let* plan = acc in
      let* e = parse_entry item in
      Ok (e :: plan))
    (Ok []) items
  |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Compilation to engine-time operations                              *)
(* ------------------------------------------------------------------ *)

type op =
  | Fail of int
  | Restart of int
  | Set_link of { a : int; b : int; loss : float }
  | Set_global of float

type resolved = { time : float; op : op }

let validate ~topology plan =
  let n = Slpdas_wsn.Graph.n topology.Slpdas_wsn.Topology.graph in
  let sink = topology.Slpdas_wsn.Topology.sink in
  let node what v =
    if v < 0 || v >= n then
      Error (Printf.sprintf "%s node %d out of range" what v)
    else Ok ()
  in
  let link what a b =
    let* () = node what a in
    node what b
  in
  List.fold_left
    (fun acc { action; _ } ->
      let* () = acc in
      match action with
      | Crash (Node v) ->
        let* () = node "crash" v in
        if v = sink then Error "cannot crash the sink" else Ok ()
      | Crash All_crashed -> Error "crash target 'all' is unsupported"
      | Revive (Node v) -> node "revive" v
      | Revive (Random_nodes _) -> Error "revive target k=… is unsupported"
      | Crash (Random_nodes _ | Region _) | Revive (Region _ | All_crashed) ->
        Ok ()
      | Link_down { a; b } -> link "linkdown" a b
      | Degrade { a; b; _ } -> link "degrade" a b
      | Restore_link { a; b } -> link "restore" a b
      | Loss_burst _ -> Ok ())
    (Ok ()) plan

let compile ?(protect = []) ~topology ~seed plan =
  let graph = topology.Slpdas_wsn.Topology.graph in
  let n = Slpdas_wsn.Graph.n graph in
  let sink = topology.Slpdas_wsn.Topology.sink in
  let positions = topology.Slpdas_wsn.Topology.positions in
  (match validate ~topology plan with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Fault_plan.compile: " ^ reason));
  let rng = Slpdas_util.Rng.create seed in
  (* Entries resolve in time order so that stateful targets (All_crashed,
     the crashed-set exclusion of Random_nodes) see the set of nodes down
     at that plan instant. *)
  let entries =
    List.stable_sort (fun a b -> Float.compare a.at b.at) plan
  in
  (* Currently-crashed nodes, in crash order. *)
  let crashed = ref [] in
  let region_nodes ~x0 ~y0 ~x1 ~y1 =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      let x, y = positions.(v) in
      if v <> sink && x >= x0 && x <= x1 && y >= y0 && y <= y1 then
        acc := v :: !acc
    done;
    !acc
  in
  let resolve_crash = function
    | Node v -> [ v ]
    | Random_nodes k ->
      let candidates = ref [] in
      for v = n - 1 downto 0 do
        if v <> sink && (not (List.mem v protect)) && not (List.mem v !crashed)
        then candidates := v :: !candidates
      done;
      let arr = Array.of_list !candidates in
      Slpdas_util.Rng.shuffle rng arr;
      Array.to_list (Array.sub arr 0 (min k (Array.length arr)))
    | Region { x0; y0; x1; y1 } -> region_nodes ~x0 ~y0 ~x1 ~y1
    | All_crashed -> assert false (* rejected by [validate] *)
  in
  let resolve_revive = function
    | Node v -> [ v ]
    | Region { x0; y0; x1; y1 } -> region_nodes ~x0 ~y0 ~x1 ~y1
    | All_crashed -> !crashed
    | Random_nodes _ -> assert false (* rejected by [validate] *)
  in
  let ops =
    List.concat_map
      (fun { at; action } ->
        match action with
        | Crash tg ->
          let vs = resolve_crash tg in
          crashed := !crashed @ List.filter (fun v -> not (List.mem v !crashed)) vs;
          List.map (fun v -> { time = at; op = Fail v }) vs
        | Revive tg ->
          let vs = resolve_revive tg in
          crashed := List.filter (fun c -> not (List.mem c vs)) !crashed;
          List.map (fun v -> { time = at; op = Restart v }) vs
        | Link_down { a; b } ->
          [ { time = at; op = Set_link { a; b; loss = 1.0 } } ]
        | Degrade { a; b; loss } ->
          [ { time = at; op = Set_link { a; b; loss } } ]
        | Restore_link { a; b } ->
          [ { time = at; op = Set_link { a; b; loss = 0.0 } } ]
        | Loss_burst { loss; duration } ->
          [
            { time = at; op = Set_global loss };
            { time = at +. duration; op = Set_global 0.0 };
          ])
      entries
  in
  List.stable_sort (fun a b -> Float.compare a.time b.time) ops
