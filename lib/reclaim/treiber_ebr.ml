(* Treiber's stack with real node reclamation ("TRB-EBR"): the
   {!Stack_intf.S} face of {!Reclaimed_stack}, registered in the harness
   registry so it runs under `sec_bench --backend sim|native` next to the
   GC-backed "TRB". The only difference from lib/stacks/treiber.ml is the
   EBR protocol cost: every operation enters and exits a critical section
   and every pop retires its node — exactly the overhead the C++ artifact
   pays, which the benchmark comparison is meant to expose.

   Destructors are no-ops here (the harness attaches no resource to a
   node); the reclamation checker still tracks every node through the
   instrumented {!Reclaimed_stack}. *)

(* Thin wrapper over the lock-free {!Reclaimed_stack}. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) : Sec_spec.Stack_intf.S = struct
  module R = Reclaimed_stack.Make (P)

  type 'a t = 'a R.t

  let name = "TRB-EBR"
  let create ?max_threads () = R.create ?max_threads ()
  let push t ~tid v = R.push t ~tid v ~on_reclaim:ignore
  let pop = R.pop
  let peek = R.peek
end
