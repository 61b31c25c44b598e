module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type direction = Compass | Sectors of int

type config = {
  sink : int;
  source : int;
  walk_length : int;
  direction : direction;
  positions : (float * float) array;
  source_period : float;
  hop_delay : float;
  start_time : float;
  run_seed : int;
}

let default_config ~topology ~walk_length =
  {
    sink = topology.Slpdas_wsn.Topology.sink;
    source = topology.Slpdas_wsn.Topology.source;
    walk_length;
    direction = Compass;
    positions = topology.Slpdas_wsn.Topology.positions;
    source_period = 5.5;
    hop_delay = 0.02;
    start_time = 5.0;
    run_seed = 1;
  }

type msg =
  | Hello
  | Walk of { id : int; ttl : int; target : int; dir : float * float }
  | Flood of { id : int }

let message_id = function
  | Hello -> None
  | Walk { id; _ } -> Some id
  | Flood { id } -> Some id

type state = {
  config : config;
  rng : Slpdas_util.Rng.t;
  neighbours : Int_set.t;
  seen : Int_set.t;
  walk_from : int Int_map.t;
  pending_walks : (int * int * (float * float)) Int_map.t;
  next_id : int;
  received : int list;
  hello_remaining : int;
}

let sink_received s = List.rev s.received

(* Record a delivery at the sink exactly once per message (a walk passing
   through the sink and the later flood of the same id must not double
   count). *)
let deliver_at_sink s id =
  if Int_set.mem id s.seen then s
  else { s with seen = Int_set.add id s.seen; received = id :: s.received }

let hello_timer = Slpdas_gcn.Timer.intern "hello"

let gen_timer = Slpdas_gcn.Timer.intern "gen"

let walk_timer id = Slpdas_gcn.Timer.intern ("walk-" ^ string_of_int id)

let flood_timer id = Slpdas_gcn.Timer.intern ("fwd-" ^ string_of_int id)

(* Schedule our (re)broadcast of flood [id] after the hop delay. *)
let start_flood s id =
  ( { s with seen = Int_set.add id s.seen },
    [ Slpdas_gcn.Set_timer { timer = flood_timer id; after = s.config.hop_delay } ]
  )

(* Does moving from [self] to [v] advance in direction [dir]? *)
let advances s ~self ~dir v =
  let x0, y0 = s.config.positions.(self) in
  let x1, y1 = s.config.positions.(v) in
  let dx, dy = dir in
  ((x1 -. x0) *. dx) +. ((y1 -. y0) *. dy) > 1e-9

(* Choose the next hop of a walk: prefer neighbours that advance along
   [dir]; always avoid the immediate predecessor. *)
let choose_next_hop s ~self ~id ~dir =
  let without_prev =
    match Int_map.find_opt id s.walk_from with
    | Some prev -> Int_set.remove prev s.neighbours
    | None -> s.neighbours
  in
  let preferred =
    Int_set.elements (Int_set.filter (advances s ~self ~dir) without_prev)
  in
  let fallback = Int_set.elements without_prev in
  match (preferred, fallback) with
  | p :: ps, _ -> Some (Slpdas_util.Rng.choose s.rng (p :: ps))
  | [], f :: fs -> Some (Slpdas_util.Rng.choose s.rng (f :: fs))
  | [], [] ->
    begin match Int_set.elements s.neighbours with
    | [] -> None
    | all -> Some (Slpdas_util.Rng.choose s.rng all)
    end

(* Continue a walk token with [ttl] hops left, or convert to a flood. *)
let continue_walk s ~self ~id ~ttl ~dir =
  if ttl <= 0 then start_flood s id
  else begin
    match choose_next_hop s ~self ~id ~dir with
    | None -> start_flood s id
    | Some next ->
      ( {
          s with
          pending_walks = Int_map.add id (next, ttl - 1, dir) s.pending_walks;
        },
        [ Slpdas_gcn.Set_timer { timer = walk_timer id; after = s.config.hop_delay } ]
      )
  end

(* The PSSPR direction policy (Chen et al.): sector index of the sink as
   seen from [self], the three sectors centred on it excluded, a uniform
   choice among the rest, and a uniform angle within the chosen sector. *)
let sector_direction s ~self num =
  let width = 2.0 *. Float.pi /. Float.of_int num in
  let x, y = s.config.positions.(self) in
  let sx, sy = s.config.positions.(s.config.sink) in
  let sink_angle = atan2 (sy -. y) (sx -. x) in
  let sink_sector =
    let i = int_of_float (Float.floor ((sink_angle +. Float.pi) /. width)) in
    ((i mod num) + num) mod num
  in
  let blocked i =
    num > 3
    && (i = sink_sector
       || i = (sink_sector + 1) mod num
       || i = (sink_sector + num - 1) mod num)
  in
  let allowed = ref [] in
  for i = num - 1 downto 0 do
    if not (blocked i) then allowed := i :: !allowed
  done;
  let sec =
    match !allowed with
    | [] -> sink_sector  (* degenerate sector counts: no exclusion *)
    | xs -> Slpdas_util.Rng.choose s.rng xs
  in
  let angle =
    (Float.of_int sec *. width) -. Float.pi
    +. Slpdas_util.Rng.float s.rng width
  in
  (cos angle, sin angle)

let on_generate ~self s =
  let id = s.next_id in
  let s = { s with next_id = id + 1 } in
  let rearm =
    Slpdas_gcn.Set_timer { timer = gen_timer; after = s.config.source_period }
  in
  let dir =
    match s.config.direction with
    | Compass ->
      let angle = Slpdas_util.Rng.float s.rng (2.0 *. Float.pi) in
      (cos angle, sin angle)
    | Sectors num -> sector_direction s ~self num
  in
  let s, effects =
    if s.config.walk_length <= 0 then start_flood s id
    else continue_walk s ~self ~id ~ttl:s.config.walk_length ~dir
  in
  (s, effects @ [ rearm ])

let on_receive ~self s ~sender msg =
  match msg with
  | Hello -> ({ s with neighbours = Int_set.add sender s.neighbours }, [])
  | Walk { id; ttl; target; dir } ->
    if self <> target then (s, [])
    else begin
      let s = { s with walk_from = Int_map.add id sender s.walk_from } in
      (* The sink is an ordinary waypoint for the walk: it reads the message
         (direct delivery) but still forwards the token, as any node does. *)
      let s = if self = s.config.sink then deliver_at_sink s id else s in
      continue_walk s ~self ~id ~ttl ~dir
    end
  | Flood { id } ->
    if Int_set.mem id s.seen then (s, [])
    else if self = s.config.sink then (deliver_at_sink s id, [])
    else start_flood s id

let on_timeout ~self:_ s timer =
  let name = Slpdas_gcn.Timer.name timer in
  match String.index_opt name '-' with
  | None -> None
  | Some i ->
    let id = int_of_string (String.sub name (i + 1) (String.length name - i - 1)) in
    if String.length name > 4 && String.sub name 0 4 = "walk" then begin
      match Int_map.find_opt id s.pending_walks with
      | None -> Some (s, [])
      | Some (target, ttl, dir) ->
        Some
          ( { s with pending_walks = Int_map.remove id s.pending_walks },
            [ Slpdas_gcn.Broadcast (Walk { id; ttl; target; dir }) ] )
    end
    else Some (s, [ Slpdas_gcn.Broadcast (Flood { id }) ])

type family = { name : string; node_salt : int; engine_salt : int }

(* Sector walks were a separate protocol before they became a direction
   policy here, with seed streams of their own.  Each policy keeps its
   streams so that every run reproduces the one recorded before the fold:
   the per-node RNG salt below, and the engine-seed salt and scenario name
   of Phantom_runner. *)
let family = function
  | Compass -> { name = "phantom"; node_salt = 0x9e37; engine_salt = 0x7a9 }
  | Sectors _ ->
    { name = "sector-phantom"; node_salt = 0x5ec7; engine_salt = 0x5ec_70 }

let program config ~self:_ =
  (match config.direction with
  | Sectors num when num < 1 ->
    invalid_arg
      (Printf.sprintf "Phantom.program: Sectors %d, need at least 1" num)
  | Compass | Sectors _ -> ());
  let node_salt = (family config.direction).node_salt in
  let init ~self =
    let rng =
      Slpdas_util.Rng.create
        ((config.run_seed * 48_271) lxor (self * 69_621) lxor node_salt)
    in
    let s =
      {
        config;
        rng;
        neighbours = Int_set.empty;
        seen = Int_set.empty;
        walk_from = Int_map.empty;
        pending_walks = Int_map.empty;
        next_id = 0;
        received = [];
        hello_remaining = 3;
      }
    in
    let effects =
      [ Slpdas_gcn.Set_timer { timer = hello_timer; after = 0.5 } ]
      @
      if self = config.source then
        [ Slpdas_gcn.Set_timer { timer = gen_timer; after = config.start_time } ]
      else []
    in
    (s, effects)
  in
  let actions =
    [
      {
        Slpdas_gcn.name = "hello";
        handler =
          (fun ~self:_ s trigger ->
            match trigger with
            | Slpdas_gcn.Timeout t
              when Slpdas_gcn.Timer.equal t hello_timer && s.hello_remaining > 0
              ->
              Some
                ( { s with hello_remaining = s.hello_remaining - 1 },
                  Slpdas_gcn.Broadcast Hello
                  ::
                  (if s.hello_remaining > 1 then
                     [ Slpdas_gcn.Set_timer { timer = hello_timer; after = 1.0 } ]
                   else []) )
            | _ -> None);
      };
      {
        Slpdas_gcn.name = "generate";
        handler =
          (fun ~self s trigger ->
            match trigger with
            | Slpdas_gcn.Timeout t when Slpdas_gcn.Timer.equal t gen_timer ->
              Some (on_generate ~self s)
            | _ -> None);
      };
      {
        Slpdas_gcn.name = "forward";
        handler =
          (fun ~self s trigger ->
            match trigger with
            | Slpdas_gcn.Timeout t -> on_timeout ~self s t
            | _ -> None);
      };
      {
        Slpdas_gcn.name = "receive";
        handler =
          (fun ~self s trigger ->
            match trigger with
            | Slpdas_gcn.Receive { sender; msg } ->
              Some (on_receive ~self s ~sender msg)
            | _ -> None);
      };
    ]
  in
  { Slpdas_gcn.init; actions; spontaneous = [] }
