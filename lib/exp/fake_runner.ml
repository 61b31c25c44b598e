type config = {
  topology : Slpdas_wsn.Topology.t;
  fake_sources : int list;
  fake_rate_multiplier : float;
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
  real_delivered : int;
  fake_delivered : int;
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
      (Slpdas_core.Fake_source.default_config ~topology
         ~fake_sources:config.fake_sources
         ~fake_rate_multiplier:config.fake_rate_multiplier)
      with
      run_seed = config.seed;
    }
  in
  let safety_seconds =
    Slpdas_core.Safety.safety_seconds ~period_length:protocol.source_period
      ~delta_ss ()
  in
  let attach engine =
    Slpdas_attack.Hunter.attach hunter ~seed:config.seed ~start:sink ~source
      ~message_id:Slpdas_core.Fake_source.message_id engine
  in
  let extract engine hunter =
    let capture_seconds =
      Option.map
        (fun t -> t -. protocol.Slpdas_core.Fake_source.start_time)
        (Slpdas_attack.Hunter.capture_time hunter)
    in
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
      real_delivered =
        List.length sink_state.Slpdas_core.Fake_source.received_real;
      fake_delivered = sink_state.Slpdas_core.Fake_source.received_fake;
      safety_seconds;
      delta_ss;
    }
  in
  Scenario.make ~name:"fake-source" ~topology ~link:config.link
    ~engine_seed:(config.seed lxor 0xfa4e)
    ~program:(Slpdas_core.Fake_source.program protocol)
    ~deadline:(protocol.Slpdas_core.Fake_source.start_time +. safety_seconds)
    ~attach ~extract ()

let run ?hunter config = Harness.run (scenario ?hunter config)

let run_with_events ?hunter config =
  Harness.run_with_events (scenario ?hunter config)

let run_many ?domains ?hunter configs =
  Harness.run_many ?domains (scenario ?hunter) configs

let run_many_with_events ?domains ?hunter configs =
  Harness.run_many_with_events ?domains (scenario ?hunter) configs
