(* Allocator microbenchmark behind `sec_bench alloc`: the node hot path
   measured in isolation — the magazine over its slab store, no stack
   on top — so the allocator's cost and cross-domain traffic are
   numbers, not inferences from end-to-end throughput.

   Two phases, both substrates:

   - [Local]: every thread alloc/frees bursts of [burst] nodes through
     its own magazine. [burst] exceeds the magazine capacity, so each
     burst forces slow-path refills and overflows into the slab store.
   - [Remote]: producer/consumer pairs. The producer allocates a batch
     and hands it over through one exchange cell; the consumer frees
     every node. The allocation and free streams live on different
     domains, so whole slabs must be parked by the consumer and adopted
     by the producer.

   The iteration counts are fixed (not timed), so the simulated runs
   are deterministic per seed and the cross-domain CAS tally
   ([Slab.Global.cas_attempts]) is exact. Native timing wraps the whole
   run (spawn + barrier + work); size [iters] so the loop dominates. *)

type phase = Local | Remote

let phase_to_string = function Local -> "local" | Remote -> "remote"

type result = {
  r_phase : phase;
  backend : string;  (** "native" or "sim" *)
  threads : int;
  ops : int;  (** alloc/free round-trips completed *)
  per_op : float;  (** ns/op (native) or cycles/op (sim) *)
  unit_label : string;  (** "ns/op" or "cycles/op" *)
  cross_cas : int;
      (** cross-domain CAS attempts the slab store issued
          ({!Sec_reclaim.Slab.Global.cas_attempts}) — the number
          docs/PERF.md quotes *)
  cross_cas_retries : int;  (** attempts that lost (slab kept or miss) *)
  fresh : int;  (** nodes constructed outside the recycler (misses) *)
  occupancy : float;  (** slab pooled/capacity at the end of the run *)
}

(* The workload, once, over any execution substrate. *)
module Bench (X : Sec_prim.Prim_intf.EXEC) = struct
  module A = X.Atomic
  module Backoff = Sec_prim.Backoff.Make (X)
  module Mag = Sec_reclaim.Magazine.Make (X)

  (* Every thread: [iters] bursts of [burst] alloc/free round-trips
     against its own magazine. Returns total round-trips. *)
  let local ~threads ~iters ~burst =
    let mag = Mag.create ~max_threads:threads () in
    let completed = Array.make threads 0 in
    for _ = 1 to threads do
      X.spawn (fun () ->
          let tid = X.thread_id () in
          let nodes = Array.make burst 0 in
          for _ = 1 to iters do
            for i = 0 to burst - 1 do
              nodes.(i) <-
                (match Mag.alloc mag ~tid with
                | Some n -> n
                | None ->
                    X.note_alloc ();
                    tid + i)
            done;
            for i = 0 to burst - 1 do
              Mag.recycle mag ~tid nodes.(i)
            done;
            completed.(tid) <- completed.(tid) + burst
          done)
    done;
    X.await_all ();
    Array.fold_left ( + ) 0 completed

  (* Producer/consumer pairs handing whole batches through one exchange
     cell: tid 2p allocates, tid 2p+1 frees. Counted on the consumer. *)
  let remote ~threads ~iters ~burst =
    let pairs = threads / 2 in
    if pairs < 1 then
      invalid_arg "Alloc_bench: the remote phase needs >= 2 threads";
    let mag = Mag.create ~max_threads:threads () in
    let cells = Array.init pairs (fun _ -> A.make_padded []) in
    let completed = Array.make threads 0 in
    for _ = 1 to pairs do
      X.spawn (fun () ->
          (* producer *)
          let tid = X.thread_id () in
          let cell = cells.(tid / 2) in
          for _ = 1 to iters do
            let batch = ref [] in
            for i = 0 to burst - 1 do
              let n =
                match Mag.alloc mag ~tid with
                | Some n -> n
                | None ->
                    X.note_alloc ();
                    tid + i
              in
              batch := n :: !batch
            done;
            let backoff = Backoff.create () in
            while not (A.compare_and_set cell [] !batch) do
              Backoff.once backoff
            done
          done);
      X.spawn (fun () ->
          (* consumer *)
          let tid = X.thread_id () in
          let cell = cells.(tid / 2) in
          for _ = 1 to iters do
            let backoff = Backoff.create () in
            let rec take () =
              match A.exchange cell [] with
              | [] ->
                  Backoff.once backoff;
                  take ()
              | batch -> batch
            in
            List.iter (fun n -> Mag.recycle mag ~tid n) (take ());
            completed.(tid) <- completed.(tid) + burst
          done)
    done;
    X.await_all ();
    Array.fold_left ( + ) 0 completed

  let run ~phase ~threads ~iters ~burst () =
    match phase with
    | Local -> local ~threads ~iters ~burst
    | Remote -> remote ~threads ~iters ~burst
end

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)

let default_iters = 200
let default_burst = 192 (* > Magazine.default_capacity: bursts must spill *)

(* Fold the process-wide tallies into a [result]. *)
let finish ~phase ~backend ~threads ~ops ~per_op ~unit_label =
  let a = Sec_core.Sec_stats.alloc_snapshot () in
  {
    r_phase = phase;
    backend;
    threads;
    ops;
    per_op;
    unit_label;
    cross_cas = a.Sec_core.Sec_stats.slab_cas;
    cross_cas_retries = a.Sec_core.Sec_stats.slab_cas_retries;
    fresh =
      a.Sec_core.Sec_stats.mag_misses + a.Sec_core.Sec_stats.slab_fresh;
    occupancy = a.Sec_core.Sec_stats.slab_occupancy;
  }

(* Native: fixed work, wall clock around the whole run (domain spawn and
   start barrier included — size [iters] so the loop dominates). *)
let run_native ?(threads = 4) ?(iters = default_iters)
    ?(burst = default_burst) ?(seed = 1) ~phase () =
  let module B = Bench (Sec_prim.Native) in
  Sec_core.Sec_stats.alloc_reset ();
  let ops = ref 0 in
  let t0 = ref 0. and t1 = ref 0. in
  Sec_prim.Native.with_exec ~seed:(Int64.of_int seed) (fun () ->
      t0 := Unix.gettimeofday ();
      ops := B.run ~phase ~threads ~iters ~burst ();
      t1 := Unix.gettimeofday ());
  let per_op =
    if !ops = 0 then 0. else (!t1 -. !t0) *. 1e9 /. float_of_int !ops
  in
  finish ~phase ~backend:"native" ~threads ~ops:!ops ~per_op
    ~unit_label:"ns/op"

(* Simulated: same fixed work on virtual fibers; the cost unit is the
   makespan in virtual cycles, deterministic per seed. *)
let run_sim ?(threads = 4) ?(iters = default_iters) ?(burst = default_burst)
    ?(seed = 1) ?topology ~phase () =
  let module B = Bench (Sec_sim.Sim.Prim) in
  let topology =
    match topology with Some t -> t | None -> Sec_sim.Topology.testbox
  in
  Sec_core.Sec_stats.alloc_reset ();
  let ops, stats =
    Sec_sim.Sim.run ~seed ~jitter:2 ~topology (fun () ->
        B.run ~phase ~threads ~iters ~burst ())
  in
  let per_op =
    if ops = 0 then 0.
    else float_of_int stats.Sec_sim.Sim.elapsed_cycles /. float_of_int ops
  in
  finish ~phase ~backend:"sim" ~threads ~ops ~per_op
    ~unit_label:"cycles/op"
