(* Native micro-measurements of single layers, for the traced run: each
   times a loop of calls into one library module on the monotonic clock
   and reports the median over repetitions, in nanoseconds per call. *)

module NP = Sec_prim.Native

let reps = 7

(* Median ns per iteration of [body iters], over [reps] repetitions. *)
let per_call ~iters body =
  Sample.median
    (List.init reps (fun _ ->
         let t0 = Probe.host_ns () in
         body iters;
         float_of_int (Probe.host_ns () - t0) /. float_of_int iters))

(* [Native.relax n] spins n units; this is the cost of one unit. *)
let relax_ns () = per_call ~iters:200_000 (fun n -> NP.relax n)

(* Uncontended atomics on a padded cell. *)
let faa_ns () =
  let cell = NP.Atomic.make_padded 0 in
  per_call ~iters:1_000_000 (fun n ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (NP.Atomic.fetch_and_add cell 1))
      done)

let cas_ns () =
  let cell = NP.Atomic.make_padded 0 in
  per_call ~iters:1_000_000 (fun n ->
      let base = NP.Atomic.get cell in
      for i = base to base + n - 1 do
        ignore (Sys.opaque_identity (NP.Atomic.compare_and_set cell i (i + 1)))
      done)

(* One allocation and one recycle on a single domain, through a magazine
   and through the slab store; a miss constructs a fresh node, as the
   stacks do. *)
let magazine_roundtrip_ns () =
  let module M = Sec_reclaim.Magazine.Make (NP) in
  let m = M.create ~max_threads:1 () in
  per_call ~iters:1_000_000 (fun n ->
      for i = 1 to n do
        let node = match M.alloc m ~tid:0 with Some r -> r | None -> ref i in
        M.recycle m ~tid:0 node
      done)

let slab_roundtrip_ns () =
  let module S = Sec_reclaim.Slab.Make (NP) in
  let s = S.create ~max_threads:1 () in
  per_call ~iters:1_000_000 (fun n ->
      for i = 1 to n do
        let node = match S.alloc s ~tid:0 with Some r -> r | None -> ref i in
        S.free s ~tid:0 node
      done)

(* [Runner.drive]'s own cost: the workload's mix on one domain with
   closures that do nothing, in ns per operation. *)
let loop_ns_per_op ~mix ~seed =
  let module R = Sec_harness.Runner.Make (NP) in
  Sample.median
    (List.init 5 (fun i ->
         NP.with_exec ~seed:(Int64.of_int (seed + i)) (fun () ->
             let o =
               R.drive ~threads:1 ~stop:(R.Timed 0.1) ~mix
                 ~push:(fun ~tid:_ _ -> ())
                 ~pop:(fun ~tid:_ -> None)
                 ~peek:(fun ~tid:_ -> None)
                 ()
             in
             let elapsed = Option.value o.R.elapsed ~default:0.1 in
             elapsed *. 1e9 /. float_of_int (max 1 (R.total o)))))
