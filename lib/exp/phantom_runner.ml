type config = {
  topology : Slpdas_wsn.Topology.t;
  walk_length : int;
  direction : Slpdas_core.Phantom.direction;
  link : Slpdas_sim.Link_model.t;
  seed : int;
}

type result = {
  captured : bool;
  capture_seconds : float option;
  attacker_path : int list;
  messages_sent : int;
  broadcasts_by_node : int array;
  duration_seconds : float;
  source_messages : int;
  delivered : int;
  safety_seconds : float;
  delta_ss : int;
}

let scenario ?(hunter = Slpdas_attack.Model.Local) config =
  let topology = config.topology in
  let sink = topology.Slpdas_wsn.Topology.sink in
  let source = topology.Slpdas_wsn.Topology.source in
  let delta_ss = Slpdas_wsn.Topology.source_sink_distance topology in
  let protocol =
    {
      (Slpdas_core.Phantom.default_config ~topology
         ~walk_length:config.walk_length)
      with
      direction = config.direction;
      run_seed = config.seed;
    }
  in
  let safety_seconds =
    Slpdas_core.Safety.safety_seconds ~period_length:protocol.source_period
      ~delta_ss ()
  in
  let attach engine =
    Slpdas_attack.Hunter.attach hunter ~seed:config.seed ~start:sink ~source
      ~message_id:Slpdas_core.Phantom.message_id engine
  in
  let extract engine hunter =
    let capture_seconds =
      Option.map
        (fun t -> t -. protocol.Slpdas_core.Phantom.start_time)
        (Slpdas_attack.Hunter.capture_time hunter)
    in
    let source_state = Slpdas_sim.Engine.node_state engine source in
    let sink_state = Slpdas_sim.Engine.node_state engine sink in
    {
      captured =
        (match capture_seconds with
        | Some t -> t <= safety_seconds
        | None -> false);
      capture_seconds;
      attacker_path = Slpdas_attack.Hunter.path hunter;
      messages_sent = Slpdas_sim.Engine.broadcasts engine;
      broadcasts_by_node = Slpdas_sim.Engine.broadcasts_by_node engine;
      duration_seconds = Slpdas_sim.Engine.time engine;
      source_messages = source_state.Slpdas_core.Phantom.next_id;
      delivered = List.length (Slpdas_core.Phantom.sink_received sink_state);
      safety_seconds;
      delta_ss;
    }
  in
  let family = Slpdas_core.Phantom.family config.direction in
  Scenario.make ~name:family.name ~topology ~link:config.link
    ~engine_seed:(config.seed lxor family.engine_salt)
    ~program:(Slpdas_core.Phantom.program protocol)
    ~deadline:(protocol.Slpdas_core.Phantom.start_time +. safety_seconds)
    ~attach ~extract ()

let run ?hunter config = Harness.run (scenario ?hunter config)

let run_with_events ?hunter config =
  Harness.run_with_events (scenario ?hunter config)

let run_many ?domains ?hunter configs =
  Harness.run_many ?domains (scenario ?hunter) configs

let run_many_with_events ?domains ?hunter configs =
  Harness.run_many_with_events ?domains (scenario ?hunter) configs
