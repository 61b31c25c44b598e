(* Repeating flooder: node 0 starts a new network-wide wave every second and
   every node forwards each wave once — the broadcast-heaviest workload the
   engine sees, so per-broadcast costs (link sampling, fan-out, jam checks)
   dominate. *)
let program ~self =
  let go_timer = Slpdas_gcn.Timer.intern "pipeline-wave" in
  let init ~self =
    ( 0,
      if self = 0 then
        [ Slpdas_gcn.Set_timer { timer = go_timer; after = 1.0 } ]
      else [] )
  in
  let go =
    {
      Slpdas_gcn.name = "go";
      handler =
        (fun ~self:_ wave trigger ->
          match trigger with
          | Slpdas_gcn.Timeout t when Slpdas_gcn.Timer.equal t go_timer ->
            Some
              ( wave + 1,
                [
                  Slpdas_gcn.Broadcast (wave + 1);
                  Slpdas_gcn.Set_timer { timer = go_timer; after = 1.0 };
                ] )
          | _ -> None);
    }
  in
  let forward =
    {
      Slpdas_gcn.name = "forward";
      handler =
        (fun ~self:_ wave trigger ->
          match trigger with
          | Slpdas_gcn.Receive { msg; _ } when msg > wave ->
            Some (msg, [ Slpdas_gcn.Broadcast msg ])
          | _ -> None);
    }
  in
  ignore self;
  { Slpdas_gcn.init; actions = [ go; forward ]; spontaneous = [] }
