(* Cmdliner terms and helpers shared by the slp_das_cli subcommands.

   Every subcommand used to declare its own copies of the dimension /
   seed / refinement / attacker arguments; they live here once so that a
   flag rename or a doc fix propagates everywhere, and so new subcommands
   (serve, tune) cannot drift from the established option names. *)

open Cmdliner

(* An integer bounded below.  An out-of-range value is a usage error that
   names the flag (Cmdliner prints "option '--dim': must be >= 2, got 1"
   and exits 124), with the same bounds and wording as the serve query
   grammar, instead of an Invalid_argument raised deep in the library. *)
let int_at_least low =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun v ->
        if v < low then Error (`Msg (Printf.sprintf "must be >= %d, got %d" low v))
        else Ok v)
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A float above zero, rejected the same way. *)
let positive_float =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun v ->
        if v > 0.0 then Ok v
        else Error (`Msg (Printf.sprintf "must be > 0, got %g" v)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A float at or above zero: durations and budgets. *)
let non_negative_float =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun v ->
        if v >= 0.0 then Ok v
        else Error (`Msg (Printf.sprintf "must be >= 0, got %g" v)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let dim_arg =
  let doc = "Grid dimension (the paper uses 11, 15 and 21); at least 2." in
  Arg.(value & opt (int_at_least 2) 11 & info [ "d"; "dim" ] ~docv:"DIM" ~doc)

let seed_arg =
  let doc = "Root random seed." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let sd_arg =
  let doc = "Search distance SD (Table I: 3 or 5); at least 1." in
  Arg.(
    value
    & opt (int_at_least 1) 3
    & info [ "search-distance" ] ~docv:"SD" ~doc)

let gap_arg =
  let doc =
    "Decoy slot gap for Phase 3 (1 = paper-literal nSlot-1; larger values \
     harden the lure)."
  in
  Arg.(value & opt (int_at_least 1) 1 & info [ "gap" ] ~docv:"GAP" ~doc)

let slp_arg =
  let doc = "Apply the SLP refinement (Phases 2-3); default protectionless." in
  Arg.(value & flag & info [ "slp" ] ~doc)

let runs_arg =
  let doc = "Number of seeded runs; at least 1." in
  Arg.(
    value & opt (int_at_least 1) 50 & info [ "n"; "runs" ] ~docv:"RUNS" ~doc)

let domains_arg =
  let doc =
    "Worker domains for multi-run commands (default: the hardware's \
     recommended count; at least 1).  Results are identical for every \
     value."
  in
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "domains" ] ~docv:"N" ~doc)

let events_json_arg =
  let doc =
    "Write the run's aggregated event-bus counters (broadcasts, deliveries, \
     drops, timer fires, attacker moves, phase transitions) as JSON to FILE."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "events-json" ] ~docv:"FILE" ~doc)

(* Adversary class: shared by simulate/phantom/fake/sector/verify/chaos and
   the serve query language, so every subcommand accepts exactly the
   registry's names and prints the same error for an unknown one. *)
let attacker_cls_conv =
  let parse s =
    match Slpdas_attack.Model.of_string s with
    | Ok cls -> Ok cls
    | Error msg -> Error (`Msg msg)
  in
  let print ppf cls =
    Format.pp_print_string ppf (Slpdas_attack.Model.to_string cls)
  in
  Arg.conv (parse, print)

let attacker_cls_arg =
  let doc =
    Printf.sprintf
      "Adversary class: %s.  $(b,local) is the paper's single eavesdropper; \
       the others observe through the same event-bus interface."
      (String.concat ", " Slpdas_attack.Model.all_names)
  in
  Arg.(
    value
    & opt attacker_cls_conv Slpdas_attack.Model.Local
    & info [ "attacker" ] ~docv:"CLASS" ~doc)

let mc_trials_arg =
  let doc =
    "Monte-Carlo certification trials.  0 (the default) keeps the \
     exhaustive verifier; any non-local $(b,--attacker) class requires a \
     positive trial count."
  in
  Arg.(value & opt (int_at_least 0) 0 & info [ "mc-trials" ] ~docv:"N" ~doc)

(* The attacker's (R, H, M) budget, one triple of terms. *)
let attacker_args =
  let r =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "r" ] ~docv:"R" ~doc:"Messages heard per move (at least 1).")
  in
  let h =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "history" ] ~docv:"H" ~doc:"History size (at least 0).")
  in
  let m =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "m" ] ~docv:"M" ~doc:"Moves per period (at least 1).")
  in
  (r, h, m)

let cache_dir_arg =
  let doc =
    "Persist verification answers under DIR (versioned byte-stable files); \
     warm runs answer from it without re-verifying."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let topology_of_dim dim = Slpdas_wsn.Topology.grid dim

(* Graph.diameter is all-pairs BFS, O(n·(n+m)); reporting it on a
   paper-scale grid is fine, on a 1000x1000 grid it is hours.  Anything
   that prints it gates on this threshold. *)
let diameter_node_limit = 10_000

let params_of ~sd ~gap =
  { (Slpdas_exp.Params.with_search_distance sd Slpdas_exp.Params.default) with
    Slpdas_exp.Params.refine_gap = gap }

let build_schedule ~topo ~seed ~slp ~sd ~gap =
  let g = topo.Slpdas_wsn.Topology.graph in
  let rng = Slpdas_util.Rng.create seed in
  let das = Slpdas_core.Das_build.build ~rng g ~sink:topo.Slpdas_wsn.Topology.sink in
  if not slp then (das.Slpdas_core.Das_build.schedule, None)
  else begin
    let delta_ss = Slpdas_wsn.Topology.source_sink_distance topo in
    let change_length = max 1 (delta_ss - sd) in
    match
      Slpdas_core.Slp_refine.refine ~rng ~gap g ~das ~search_distance:sd
        ~change_length
    with
    | Some r -> (r.Slpdas_core.Slp_refine.refined, Some r)
    | None -> (das.Slpdas_core.Das_build.schedule, None)
  end

(* [build_das] is the prefix of [build_schedule] that the tuner needs: the
   Phase-1 DAS with its parent tree, before any refinement. *)
let build_das ~topo ~seed =
  let g = topo.Slpdas_wsn.Topology.graph in
  Slpdas_core.Das_build.build ~rng:(Slpdas_util.Rng.create seed) g
    ~sink:topo.Slpdas_wsn.Topology.sink

let write_events_json path counters =
  match path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Slpdas_sim.Event.to_json counters);
    output_char oc '\n';
    close_out oc;
    Format.printf "events: wrote %s@." path

(* Price a run (or the element-wise sum of several runs) in Joules; see
   {!Slpdas_exp.Energy}. *)
let print_energy ?(runs = 1) graph ~broadcasts_by_node ~duration_seconds =
  let report = Slpdas_exp.Energy.of_broadcasts graph ~broadcasts_by_node in
  let per_run = 1.0 /. float_of_int (max 1 runs) in
  Format.printf
    "energy: total %.3f J; hotspot node %d at %.4f J; mean node %.4f J@."
    (report.Slpdas_exp.Energy.total_joules *. per_run)
    report.Slpdas_exp.Energy.hotspot
    (report.Slpdas_exp.Energy.max_node_joules *. per_run)
    (report.Slpdas_exp.Energy.mean_node_joules *. per_run);
  if duration_seconds > 0.0 then
    Format.printf "energy: hotspot lifetime %.0f days on 2xAA@."
      (Slpdas_exp.Energy.lifetime_days report ~duration_seconds)
