type ninfo = { hop : int; slot : int }

type t =
  | Hello
  | Dissem of {
      normal : bool;
      info : (int * ninfo option) list;
      parent : int option;
    }
  | Search of { target : int; ttl : int }
  | Change of { target : int; base_slot : int; ttl : int }
  | Data of { origin : int; seq : int; readings : (int * int) list }
  | Neighbour_down of int
  | Release of { target : int }

let ninfo_equal (a : ninfo) (b : ninfo) = a.hop = b.hop && a.slot = b.slot

let entry_equal ((v : int), a) (w, b) = v = w && Option.equal ninfo_equal a b

let reading_equal ((o : int), (g : int)) (o', g') = o = o' && g = g'

let equal a b =
  match (a, b) with
  | Hello, Hello -> true
  | Dissem a, Dissem b ->
    Bool.equal a.normal b.normal
    && Option.equal Int.equal a.parent b.parent
    && List.equal entry_equal a.info b.info
  | Search a, Search b -> a.target = b.target && a.ttl = b.ttl
  | Change a, Change b ->
    a.target = b.target && a.base_slot = b.base_slot && a.ttl = b.ttl
  | Data a, Data b ->
    a.origin = b.origin && a.seq = b.seq
    && List.equal reading_equal a.readings b.readings
  | Neighbour_down a, Neighbour_down b -> a = b
  | Release a, Release b -> a.target = b.target
  | ( ( Hello | Dissem _ | Search _ | Change _ | Data _ | Neighbour_down _
      | Release _ ),
      _ ) ->
    false

let pp ppf = function
  | Hello -> Format.fprintf ppf "HELLO"
  | Dissem { normal; info; parent } ->
    Format.fprintf ppf "DISSEM(normal=%b, |info|=%d, par=%a)" normal
      (List.length info)
      (Format.pp_print_option Format.pp_print_int)
      parent
  | Search { target; ttl } -> Format.fprintf ppf "SEARCH(to=%d, ttl=%d)" target ttl
  | Change { target; base_slot; ttl } ->
    Format.fprintf ppf "CHANGE(to=%d, base=%d, ttl=%d)" target base_slot ttl
  | Data { origin; seq; readings } ->
    Format.fprintf ppf "DATA(origin=%d, seq=%d, |agg|=%d)" origin seq
      (List.length readings)
  | Neighbour_down v -> Format.fprintf ppf "DOWN(%d)" v
  | Release { target } -> Format.fprintf ppf "RELEASE(to=%d)" target

let describe = function
  | Hello -> "hello"
  | Dissem { normal = true; _ } -> "dissem"
  | Dissem { normal = false; _ } -> "dissem-update"
  | Search _ -> "search"
  | Change _ -> "change"
  | Data _ -> "data"
  | Neighbour_down _ -> "neighbour-down"
  | Release _ -> "release"

(* Eavesdropper view of the TDMA traffic: only [Data] transmissions are
   data-bearing, and distinct (origin, seq) pairs are distinguishable
   ciphertexts.  Origins are node ids (< 2^24 even at the 1000x1000
   scale), so the packing is injective. *)
let message_id = function
  | Data { origin; seq; _ } -> Some ((seq lsl 24) lor origin)
  | Hello | Dissem _ | Search _ | Change _ | Neighbour_down _ | Release _ ->
    None
