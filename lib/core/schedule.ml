type t = {
  n : int;
  sink : int;
  slots : int array;  (* [none] = unassigned; the sink's entry stays [none] *)
  (* Lazily computed content digest, invalidated by [assign]/[clear_slot] so
     a warm read is a field load rather than an O(n) rehash. *)
  mutable digest_memo : string option;
}

let none = min_int

let create ~n ~sink =
  if sink < 0 || sink >= n then invalid_arg "Schedule.create: sink out of range";
  { n; sink; slots = Array.make n none; digest_memo = None }

let n t = t.n

let sink t = t.sink

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Schedule: node out of range"

let assign t v s =
  check_node t v;
  if v = t.sink then invalid_arg "Schedule.assign: the sink has no slot";
  if s = none then invalid_arg "Schedule.assign: Schedule.none is not a slot";
  t.slots.(v) <- s;
  t.digest_memo <- None

let clear_slot t v =
  check_node t v;
  t.slots.(v) <- none;
  t.digest_memo <- None

let raw_slot t v =
  check_node t v;
  t.slots.(v)

let slot t v =
  let s = raw_slot t v in
  if s = none then None else Some s

let slot_exn t v =
  let s = raw_slot t v in
  if s = none then
    invalid_arg (Printf.sprintf "Schedule.slot_exn: node %d unassigned" v);
  s

let assigned t v = raw_slot t v <> none

let complete t =
  let ok = ref true in
  for v = 0 to t.n - 1 do
    if v <> t.sink && t.slots.(v) = none then ok := false
  done;
  !ok

let fold_assigned f t init =
  let acc = ref init in
  for v = 0 to t.n - 1 do
    let s = t.slots.(v) in
    if s <> none then acc := f v s !acc
  done;
  !acc

let min_slot t =
  fold_assigned
    (fun _ s acc -> match acc with None -> Some s | Some m -> Some (min m s))
    t None

let max_slot t =
  fold_assigned
    (fun _ s acc -> match acc with None -> Some s | Some m -> Some (max m s))
    t None

let sender_sets t =
  let by_slot = Hashtbl.create 64 in
  for v = t.n - 1 downto 0 do
    let s = t.slots.(v) in
    if s <> none then begin
      let senders = Option.value ~default:[] (Hashtbl.find_opt by_slot s) in
      Hashtbl.replace by_slot s (v :: senders)
    end
  done;
  Hashtbl.fold (fun s senders acc -> (s, senders) :: acc) by_slot []
  |> List.sort (Slpdas_util.Order.by fst Int.compare)

let copy t = { t with slots = Array.copy t.slots }

let digest t =
  match t.digest_memo with
  | Some d -> d
  | None ->
      let h = Slpdas_util.Fnv.create () in
      Slpdas_util.Fnv.add_int h t.n;
      Slpdas_util.Fnv.add_int h t.sink;
      Array.iter
        (fun s ->
          if s = none then Slpdas_util.Fnv.add_int h (-1)
          else begin
            Slpdas_util.Fnv.add_int h 1;
            Slpdas_util.Fnv.add_int h s
          end)
        t.slots;
      let d = "s1-" ^ Slpdas_util.Fnv.hex h in
      t.digest_memo <- Some d;
      d

let equal a b =
  a.n = b.n && a.sink = b.sink
  && Array.for_all2 Int.equal a.slots b.slots

let of_alist ~n ~sink assocs =
  let t = create ~n ~sink in
  List.iter
    (fun (v, s) ->
      if assigned t v then
        invalid_arg (Printf.sprintf "Schedule.of_alist: duplicate node %d" v);
      assign t v s)
    assocs;
  t

let to_alist t = List.rev (fold_assigned (fun v s acc -> (v, s) :: acc) t [])

let format_header = "slp-das-schedule v1"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf format_header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "n %d\nsink %d\n" t.n t.sink);
  List.iter
    (fun (v, s) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" v s))
    (to_alist t);
  Buffer.contents buf

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: n_line :: sink_line :: rest when header = format_header ->
    let parse_kv key line =
      match String.split_on_char ' ' line with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None
    in
    begin match (parse_kv "n" n_line, parse_kv "sink" sink_line) with
    | Some n, Some sink when n > 0 && sink >= 0 && sink < n ->
      let t = create ~n ~sink in
      let rec load = function
        | [] -> Ok t
        | line :: rest ->
          begin match String.split_on_char ' ' line with
          | [ v; s ] ->
            begin match (int_of_string_opt v, int_of_string_opt s) with
            | Some v, Some s when v >= 0 && v < n && v <> sink ->
              if assigned t v then
                Error (Printf.sprintf "duplicate assignment for node %d" v)
              else if s = none then
                Error (Printf.sprintf "node %d: slot %d is reserved" v s)
              else begin
                assign t v s;
                load rest
              end
            | Some v, Some _ ->
              Error (Printf.sprintf "node %d out of range or the sink" v)
            | _ -> Error (Printf.sprintf "malformed line %S" line)
            end
          | _ -> Error (Printf.sprintf "malformed line %S" line)
          end
      in
      load rest
    | _ -> Error "malformed n/sink header lines"
    end
  | header :: _ when header <> format_header ->
    Error (Printf.sprintf "bad header %S" header)
  | _ -> Error "truncated input"

let pp ppf t =
  let items = to_alist t in
  Format.fprintf ppf "@[<v>schedule (sink=%d):@ " t.sink;
  List.iter (fun (v, s) -> Format.fprintf ppf "%d:%d@ " v s) items;
  Format.fprintf ppf "@]"

let pp_grid ~dim ppf t =
  Format.fprintf ppf "@[<v>";
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      let v = (r * dim) + c in
      if v = t.sink then Format.fprintf ppf "  SNK"
      else begin
        let s = t.slots.(v) in
        if s = none then Format.fprintf ppf "    ."
        else Format.fprintf ppf " %4d" s
      end
    done;
    Format.fprintf ppf "@ "
  done;
  Format.fprintf ppf "@]"
