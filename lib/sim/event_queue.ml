(* Struct-of-arrays binary min-heap: slot i holds the key
   (at.(i), k1.(i), k2.(i)) and its event items.(i).  Keys live unboxed in
   their own arrays, so a push stores no event record and the sift loops
   compare them inline. *)
type 'a t = {
  mutable at : float array;
  mutable k1 : int array;
  mutable k2 : int array;
  mutable items : 'a array;
  mutable size : int;
}

let create () = { at = [||]; k1 = [||]; k2 = [||]; items = [||]; size = 0 }

let length q = q.size

let is_empty q = q.size = 0

(* The one ordering: time (Float.compare, so the order is total), then k1,
   then k2. *)
let[@inline] before (a : float) (x1 : int) (x2 : int) b y1 y2 =
  let c = Float.compare a b in
  c < 0 || (c = 0 && (x1 < y1 || (x1 = y1 && x2 < y2)))

let[@inline] set q i at k1 k2 item =
  Array.unsafe_set q.at i at;
  Array.unsafe_set q.k1 i k1;
  Array.unsafe_set q.k2 i k2;
  Array.unsafe_set q.items i item

let[@inline] move q ~src ~dst =
  set q dst (Array.unsafe_get q.at src) (Array.unsafe_get q.k1 src)
    (Array.unsafe_get q.k2 src) (Array.unsafe_get q.items src)

(* [item] only fills the fresh slots of the item array. *)
let grow q item =
  let cap = max 16 (2 * q.size) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 q.size;
    a'
  in
  q.at <- extend q.at 0.0;
  q.k1 <- extend q.k1 0;
  q.k2 <- extend q.k2 0;
  q.items <- extend q.items item

(* Move the hole at [i] up while its parent orders after [(at, k1, k2)],
   then drop the entry into it. *)
let[@inline] sift_up q i at k1 k2 item =
  let i = ref i in
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if
      before at k1 k2 (Array.unsafe_get q.at p) (Array.unsafe_get q.k1 p)
        (Array.unsafe_get q.k2 p)
    then begin
      move q ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  set q !i at k1 k2 item

let push q ~at ~k1 ~k2 item =
  if q.size = Array.length q.items then grow q item;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i at k1 k2 item

let check q = if q.size = 0 then invalid_arg "Event_queue: empty queue"

let min_at q =
  check q;
  Array.unsafe_get q.at 0

let min_k1 q =
  check q;
  Array.unsafe_get q.k1 0

let min_k2 q =
  check q;
  Array.unsafe_get q.k2 0

let min_before q ~at ~k1 ~k2 =
  q.size > 0
  && before (Array.unsafe_get q.at 0) (Array.unsafe_get q.k1 0)
       (Array.unsafe_get q.k2 0) at k1 k2

(* Bottom-up removal: walk the root's hole down to a leaf along the earlier
   child (one comparison per level), then sift the former last entry up
   from there — it came from the bottom, so it rarely rises far. *)
let pop q =
  check q;
  let top = Array.unsafe_get q.items 0 in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    let i = ref 0 in
    let l = ref 1 in
    while !l < n do
      let l' = !l in
      let r = l' + 1 in
      let c =
        if
          r < n
          && before (Array.unsafe_get q.at r) (Array.unsafe_get q.k1 r)
               (Array.unsafe_get q.k2 r) (Array.unsafe_get q.at l')
               (Array.unsafe_get q.k1 l') (Array.unsafe_get q.k2 l')
        then r
        else l'
      in
      move q ~src:c ~dst:!i;
      i := c;
      l := (2 * c) + 1
    done;
    sift_up q !i (Array.unsafe_get q.at n) (Array.unsafe_get q.k1 n)
      (Array.unsafe_get q.k2 n) (Array.unsafe_get q.items n)
  end;
  top
