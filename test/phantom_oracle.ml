(* Run oracle for the phantom-routing family.

   The compass and sector walks used to be two protocols, [Phantom] and
   [Sector_phantom], each with its own runner.  They are now direction
   policies of the one [Phantom] protocol, and every run must reproduce
   the run of the protocol it replaced.  A fixed grid of seeded
   [Phantom_runner] runs (grid size, walk length, direction policy, hunter
   class, link model, seed) is reduced to a digest of every result field
   that depends on the run: capture, capture time, attacker path,
   transmissions (total and per node), duration, source messages and
   deliveries.  The digests in [Phantom_digests] were recorded on the
   commit before the fold, from [Phantom_runner] for [Compass] and from
   the former [Sector_runner] for [Sectors n].

   Each field is rendered as one line, floats in [%h] (exact hex), and
   the lines are hashed with [Slpdas_util.Fnv] (stable across machines and
   compiler versions). *)

module Model = Slpdas_attack.Model
module Phantom = Slpdas_core.Phantom
module Phantom_runner = Slpdas_exp.Phantom_runner

type link = Ideal | Lossy

type case = {
  dim : int;
  walk : int;
  direction : Phantom.direction;
  hunter : Model.cls;
  link : link;
  seed : int;
}

type observation = {
  digest : string;  (* Fnv hex of the rendered result fields *)
  captured : bool;
  messages_sent : int;
}

(* [Sectors 3] never excludes a sector (the exclusion needs more than
   three); [Sectors 1] has a single sector, so its choice draws nothing. *)
let cases =
  List.concat_map
    (fun dim ->
      List.concat_map
        (fun walk ->
          List.concat_map
            (fun direction ->
              List.concat_map
                (fun hunter ->
                  List.concat_map
                    (fun link ->
                      List.map
                        (fun seed -> { dim; walk; direction; hunter; link; seed })
                        [ 1; 2; 3 ])
                    [ Ideal; Lossy ])
                [ Model.Local; Model.Global ])
            Phantom.[ Compass; Sectors 1; Sectors 3; Sectors 4; Sectors 8 ])
        [ 0; 3; 10 ])
    [ 7; 11 ]

let name c =
  Printf.sprintf "%dx%d/w%d/%s/%s/%s/s%d" c.dim c.dim c.walk
    (match c.direction with
    | Phantom.Compass -> "compass"
    | Phantom.Sectors n -> Printf.sprintf "sectors%d" n)
    (Model.to_string c.hunter)
    (match c.link with Ideal -> "ideal" | Lossy -> "lossy")
    c.seed

let digest (r : Phantom_runner.result) =
  let h = Slpdas_util.Fnv.create () in
  let line s = Slpdas_util.Fnv.add_string h s in
  let ints xs = String.concat " " (List.map string_of_int xs) in
  line (Printf.sprintf "captured %b" r.captured);
  line
    (match r.capture_seconds with
    | None -> "capture -"
    | Some t -> Printf.sprintf "capture %h" t);
  line ("path " ^ ints r.attacker_path);
  line (Printf.sprintf "sent %d" r.messages_sent);
  line ("by-node " ^ ints (Array.to_list r.broadcasts_by_node));
  line (Printf.sprintf "duration %h" r.duration_seconds);
  line (Printf.sprintf "source %d delivered %d" r.source_messages r.delivered);
  Slpdas_util.Fnv.hex h

let observe c =
  let r =
    Phantom_runner.run ~hunter:c.hunter
      {
        Phantom_runner.topology = Slpdas_wsn.Topology.grid c.dim;
        walk_length = c.walk;
        direction = c.direction;
        link =
          (match c.link with
          | Ideal -> Slpdas_sim.Link_model.Ideal
          | Lossy -> Slpdas_sim.Link_model.Lossy 0.1);
        seed = c.seed;
      }
  in
  { digest = digest r; captured = r.captured; messages_sent = r.messages_sent }
