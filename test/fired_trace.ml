(* Per-node action traces for tests: the §III-A event trace ("event ⟨name⟩
   has occurred"), most recent first, recorded by wrapping a GCN program.
   The runtime keeps no trace itself, so tests that assert one wrap the
   program with [program]/[node_program] and read [get].

   A node's trace starts as ["init"] whenever its [init] runs, so a node the
   engine revives (a fresh boot) starts a fresh trace.  Traces are indexed
   by the [self] the program sees (the global id under coupling); cells of
   a coupled run touch disjoint slots, so domains never share one. *)

module Gcn = Slpdas_gcn

type t = string list array

let create n : t = Array.make n []

let get (t : t) v = t.(v)

let record (t : t) self name = t.(self) <- name :: t.(self)

let program (t : t) (p : ('s, 'm) Gcn.program) : ('s, 'm) Gcn.program =
  {
    Gcn.init =
      (fun ~self ->
        let boot = p.Gcn.init ~self in
        t.(self) <- [ "init" ];
        boot);
    actions =
      List.map
        (fun (a : ('s, 'm) Gcn.action) ->
          {
            a with
            Gcn.handler =
              (fun ~self s trigger ->
                match a.Gcn.handler ~self s trigger with
                | None -> None
                | Some _ as fired ->
                  record t self a.Gcn.name;
                  fired);
          })
        p.Gcn.actions;
    spontaneous =
      List.map
        (fun (sp : ('s, 'm) Gcn.spontaneous) ->
          {
            sp with
            Gcn.scommand =
              (fun ~self s ->
                let result = sp.Gcn.scommand ~self s in
                record t self sp.Gcn.sname;
                result);
          })
        p.Gcn.spontaneous;
  }

(* The engine-facing form: a per-node program family, every node wrapped. *)
let node_program t family ~self = program t (family ~self)
