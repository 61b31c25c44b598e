(* A fixed unit of host work that calls no library code, timed between ops.

   The development host is a shared VM whose speed on allocation-heavy,
   pointer-chasing code drifts by tens of percent over tens of seconds,
   with other tenants' memory traffic.  The workloads are code of that
   kind, so their raw host times drift with it.  Timing this unit in the
   same process, interleaved with the ops, measures the host's current
   speed; an op time divided by the unit's time around that op is then the
   op's cost in reference units, which a program change moves and the
   host moves much less.

   The unit mixes the two patterns the workloads spend their time in:
   short-lived lists through the minor heap, and lookups in a balanced tree
   built from scattered keys.  Everything it allocates dies young, so its
   cost does not depend on the size of the program's heap.  It draws no
   random numbers: the keys come from a fixed multiplicative sequence. *)

module Int_map = Map.Make (Int)

let keys = 512

let run () =
  let acc = ref 0 in
  for round = 1 to 8 do
    let l = List.init 512 (fun k -> (k * round) land 1023) in
    acc := !acc + List.fold_left ( + ) 0 (List.rev_map (fun x -> x + 1) l);
    let m = ref Int_map.empty and x = ref round in
    for _ = 1 to keys do
      x := (!x * 1103515245 + 12345) land 0xFFFFF;
      m := Int_map.add !x round !m
    done;
    for _ = 1 to 2 * keys do
      x := (!x * 1103515245 + 12345) land 0xFFFFF;
      match Int_map.find_opt !x !m with
      | Some v -> acc := !acc + v
      | None -> incr acc
    done
  done;
  ignore (Sys.opaque_identity !acc)
