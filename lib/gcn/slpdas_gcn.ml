module Timer = struct
  type t = int

  (* Copy-on-write intern registry.  Readers probe the published table and
     array without taking the lock; writers copy, extend and re-publish under
     the mutex, so a published structure is never mutated.  [names] is
     published after the table entry it backs is added to the copy but before
     the copy itself is published, so any id observable through [table] is
     resolvable through [names]. *)
  let lock = Mutex.create ()
  let table : (string, int) Hashtbl.t Atomic.t = Atomic.make (Hashtbl.create 8)
  let names : string array Atomic.t = Atomic.make [||]

  let intern s =
    match Hashtbl.find_opt (Atomic.get table) s with
    | Some id -> id
    | None ->
      Mutex.protect lock (fun () ->
          let current = Atomic.get table in
          match Hashtbl.find_opt current s with
          | Some id -> id
          | None ->
            let id = Hashtbl.length current in
            let table' = Hashtbl.copy current in
            Hashtbl.replace table' s id;
            let old_names = Atomic.get names in
            let names' = Array.make (id + 1) s in
            Array.blit old_names 0 names' 0 (Array.length old_names);
            Atomic.set names names';
            Atomic.set table table';
            id)

  let id t = t
  let name t = (Atomic.get names).(t)
  let equal = Int.equal
  let compare = Int.compare
  let count () = Hashtbl.length (Atomic.get table)
end

type 'm trigger =
  | Timeout of Timer.t
  | Receive of { sender : int; msg : 'm }
  | Round_end

type 'm effect_ =
  | Broadcast of 'm
  | Set_timer of { timer : Timer.t; after : float }
  | Set_timer_at of { timer : Timer.t; at : float }
  | Stop_timer of Timer.t

type ('s, 'm) action = {
  name : string;
  handler : self:int -> 's -> 'm trigger -> ('s * 'm effect_ list) option;
}

type ('s, 'm) spontaneous = {
  sname : string;
  sguard : 's -> bool;
  scommand : self:int -> 's -> 's * 'm effect_ list;
}

type ('s, 'm) program = {
  init : self:int -> 's * 'm effect_ list;
  actions : ('s, 'm) action list;
  spontaneous : ('s, 'm) spontaneous list;
}

exception Divergent of string

let spontaneous_fuel = 10_000

(* The host's simulated time, published for the duration of one
   [Instance.create] or [Instance.deliver] call.  Domain-local, so hosts
   running engines on several domains never see each other's clocks; a
   one-cell float array stores the time unboxed, so publishing it does not
   allocate.  NaN means no call is running. *)
let clock = Domain.DLS.new_key (fun () -> Float.Array.make 1 Float.nan)

let now () =
  let t = Float.Array.get (Domain.DLS.get clock) 0 in
  if Float.is_nan t then
    invalid_arg "Slpdas_gcn.now: no init or action is running";
  t

(* [f a b] with [now] published, restoring the outer value afterwards (also
   when [f] raises).  Callers pass top-level functions and their arguments
   separately, so publishing the clock allocates nothing per trigger. *)
let with_clock now f a b =
  let cell = Domain.DLS.get clock in
  let prev = Float.Array.get cell 0 in
  Float.Array.set cell 0 now;
  match f a b with
  | result ->
    Float.Array.set cell 0 prev;
    result
  | exception e ->
    Float.Array.set cell 0 prev;
    raise e

module Instance = struct
  (* The program's handlers are copied into an array at boot: a trigger
     then reaches each handler closure through the instance alone, not
     through the program record, a list cell and an action record. *)
  type ('s, 'm) t = {
    handlers :
      (self:int -> 's -> 'm trigger -> ('s * 'm effect_ list) option) array;
    spontaneous : ('s, 'm) spontaneous list;
    self : int;
    mutable state : 's;
  }

  let self t = t.self

  let state t = t.state

  let rec first_enabled state = function
    | [] -> None
    | s :: rest -> if s.sguard state then Some s else first_enabled state rest

  (* Run spontaneous actions to fixpoint, appending their effects in order
     to [acc].  Top-level and closure-free: a trigger that enables nothing
     (the common case) allocates nothing here. *)
  let rec settle_from t fuel acc =
    if fuel <= 0 then raise (Divergent "spontaneous actions did not settle");
    match first_enabled t.state t.spontaneous with
    | None -> acc
    | Some s ->
      let state', effs = s.scommand ~self:t.self t.state in
      t.state <- state';
      settle_from t (fuel - 1) (acc @ effs)

  let settle t =
    match t.spontaneous with
    | [] -> []
    | _ -> settle_from t spontaneous_fuel []

  let boot program self =
    let state, boot_effects = program.init ~self in
    let t =
      {
        handlers =
          Array.of_list (List.map (fun a -> a.handler) program.actions);
        spontaneous = program.spontaneous;
        self;
        state;
      }
    in
    let settle_effects = settle t in
    (t, boot_effects @ settle_effects)

  let create program ~self ~now = with_clock now boot program self

  let rec try_actions t trigger i =
    if i >= Array.length t.handlers then []
    else
      match (Array.unsafe_get t.handlers i) ~self:t.self t.state trigger with
      | None -> try_actions t trigger (i + 1)
      | Some (state', effects) ->
        t.state <- state';
        effects

  let run_actions t trigger =
    let action_effects = try_actions t trigger 0 in
    match settle t with
    | [] -> action_effects
    | settle_effects -> action_effects @ settle_effects

  let deliver t ~now trigger = with_clock now run_actions t trigger
end
