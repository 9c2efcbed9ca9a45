(* Tests for the SEC stack itself: the standard battery plus SEC-specific
   behaviour — freezing, batch accounting, aggregator sweeps, elimination
   degree, and pop-beyond-depth semantics. *)

module P = Sec_prim.Native
module Sec = Sec_core.Sec_stack.Make (P)
module Config = Sec_core.Config
module Stats = Sec_core.Sec_stats

let with_aggs ?(stats = false) k =
  { Config.default with Config.num_aggregators = k; collect_stats = stats }

(* Adapter fixing a configuration, so the generic test kit can drive SEC
   under any aggregator count. *)
module Sec_with (C : sig
  val config : Config.t
end) : Sec_spec.Stack_intf.S = struct
  include Sec

  let create ?max_threads () = Sec.create_with ~config:C.config ?max_threads ()
end

module Sec_agg1 = Sec_with (struct let config = with_aggs 1 end)
module Sec_agg2 = Sec_with (struct let config = with_aggs 2 end)
module Sec_agg3 = Sec_with (struct let config = with_aggs 3 end)
module Sec_agg5 = Sec_with (struct let config = with_aggs 5 end)

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)

let test_config_validation () =
  Alcotest.check_raises "zero aggregators rejected"
    (Invalid_argument "Sec_core.Config: num_aggregators must be at least 1")
    (fun () ->
      ignore (Sec.create_with ~config:(with_aggs 0) ()));
  Alcotest.check_raises "negative backoff rejected"
    (Invalid_argument "Sec_core.Config: freeze_backoff must be non-negative")
    (fun () ->
      ignore
        (Sec.create_with
           ~config:{ Config.default with Config.freeze_backoff = -1 }
           ()))

let test_config_accessor () =
  let s = Sec.create_with ~config:(with_aggs 3) () in
  Alcotest.(check int) "aggregators" 3 (Sec.config s).Config.num_aggregators

(* ------------------------------------------------------------------ *)
(* Single-thread behaviour through the full batch machinery             *)

let test_depth () =
  let s = Sec.create () in
  Alcotest.(check int) "empty depth" 0 (Sec.depth s);
  for i = 1 to 10 do
    Sec.push s ~tid:0 i
  done;
  Alcotest.(check int) "depth after pushes" 10 (Sec.depth s);
  ignore (Sec.pop s ~tid:0);
  ignore (Sec.pop s ~tid:0);
  Alcotest.(check int) "depth after pops" 8 (Sec.depth s)

let test_pop_beyond_depth () =
  (* A batch of pops larger than the stack: the excess must see EMPTY. *)
  let s = Sec.create () in
  Sec.push s ~tid:0 1;
  Alcotest.(check (option int)) "first pop" (Some 1) (Sec.pop s ~tid:0);
  Alcotest.(check (option int)) "second pop empty" None (Sec.pop s ~tid:0);
  Alcotest.(check (option int)) "third pop empty" None (Sec.pop s ~tid:0)

let test_interleaved_types () =
  let s = Sec.create () in
  Sec.push s ~tid:0 1;
  Sec.push s ~tid:0 2;
  Alcotest.(check (option int)) "peek reads top" (Some 2) (Sec.peek s ~tid:0);
  Alcotest.(check (option int)) "pop" (Some 2) (Sec.pop s ~tid:0);
  Sec.push s ~tid:0 3;
  Alcotest.(check (option int)) "pop 3" (Some 3) (Sec.pop s ~tid:0);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Sec.pop s ~tid:0)

(* ------------------------------------------------------------------ *)
(* Batch statistics                                                     *)

let test_stats_single_thread () =
  (* One thread: every operation forms its own batch of size 1, nothing is
     eliminated, everything is combined. *)
  let s = Sec.create_with ~config:(with_aggs ~stats:true 1) () in
  for i = 1 to 50 do
    Sec.push s ~tid:0 i
  done;
  for _ = 1 to 50 do
    ignore (Sec.pop s ~tid:0)
  done;
  let st = Sec.stats s in
  Alcotest.(check int) "one batch per op" 100 st.Stats.batches;
  Alcotest.(check int) "ops accounted" 100 st.Stats.operations;
  Alcotest.(check int) "nothing eliminated" 0 st.Stats.eliminated;
  Alcotest.(check int) "everything combined" 100 st.Stats.combined;
  Alcotest.(check (float 0.001)) "batching degree 1" 1.0
    (Stats.batching_degree st)

let test_stats_accounting_invariant () =
  (* Under concurrency: eliminated + combined = operations, and all
     operations that completed are accounted for in some batch. *)
  let threads = 4 and ops = 2_000 in
  let s =
    Sec.create_with ~config:(with_aggs ~stats:true 2) ~max_threads:threads ()
  in
  let body tid () =
    let rng = Sec_prim.Rng.create (Int64.of_int (tid + 1)) in
    for i = 1 to ops do
      if Sec_prim.Rng.int rng 2 = 0 then Sec.push s ~tid i
      else ignore (Sec.pop s ~tid)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  let st = Sec.stats s in
  Alcotest.(check int) "eliminated + combined = operations"
    st.Stats.operations
    (st.Stats.eliminated + st.Stats.combined);
  Alcotest.(check int) "all completed ops belong to a batch"
    (threads * ops) st.Stats.operations;
  Alcotest.(check bool) "eliminated count is even" true
    (st.Stats.eliminated mod 2 = 0)

let test_stats_elimination_under_symmetry () =
  (* Balanced concurrent pushes and pops with a freezer backoff must
     achieve a non-trivial elimination degree. *)
  let threads = 4 and ops = 4_000 in
  let s =
    Sec.create_with
      ~config:{ (with_aggs ~stats:true 1) with Config.freeze_backoff = 256 }
      ~max_threads:threads ()
  in
  let body tid () =
    for i = 1 to ops do
      if tid mod 2 = 0 then Sec.push s ~tid i else ignore (Sec.pop s ~tid)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  let st = Sec.stats s in
  Alcotest.(check bool)
    (Printf.sprintf "some elimination happened (%.1f%%)"
       (Stats.pct_eliminated st))
    true
    (st.Stats.eliminated > 0)

(* The same workload in the simulator, where the four threads always run
   at once: the schedule, and so the share eliminated, is fixed by the
   seed rather than by how the host interleaves domains. *)
let test_stats_elimination_under_symmetry_sim () =
  let module SP = Sec_sim.Sim.Prim in
  let module SimSec = Sec_core.Sec_stack.Make (SP) in
  let threads = 4 and ops = 1_000 in
  let st, _ =
    Sec_sim.Sim.run ~seed:1 ~topology:Sec_sim.Topology.emerald (fun () ->
        let s =
          SimSec.create_with
            ~config:
              { (with_aggs ~stats:true 1) with Config.freeze_backoff = 256 }
            ~max_threads:threads ()
        in
        for tid = 0 to threads - 1 do
          Sec_sim.Sim.spawn (fun () ->
              for i = 1 to ops do
                if tid mod 2 = 0 then SimSec.push s ~tid i
                else ignore (SimSec.pop s ~tid)
              done)
        done;
        Sec_sim.Sim.await_all ();
        SimSec.stats s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "some elimination happened (%.1f%%)"
       (Stats.pct_eliminated st))
    true
    (st.Stats.eliminated > 0)

let test_stats_helpers () =
  let st =
    { Stats.batches = 4; operations = 40; eliminated = 30; combined = 10;
      excluded = 0 }
  in
  Alcotest.(check (float 1e-6)) "batching degree" 10. (Stats.batching_degree st);
  Alcotest.(check (float 1e-6)) "pct eliminated" 75. (Stats.pct_eliminated st);
  Alcotest.(check (float 1e-6)) "pct combined" 25. (Stats.pct_combined st);
  Alcotest.(check (float 1e-6)) "empty degree" 0.
    (Stats.batching_degree Stats.empty)

(* ------------------------------------------------------------------ *)
(* Push-only / pop-only batches under concurrency                       *)

let test_push_only_parallel () =
  let threads = 4 and ops = 2_000 in
  let s = Sec.create ~max_threads:threads () in
  let body tid () =
    for i = 1 to ops do
      Sec.push s ~tid (Testkit.tag ~tid i)
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "all nodes present" (threads * ops) (Sec.depth s)

let test_pop_only_parallel () =
  let threads = 4 and prefill = 5_000 in
  let s = Sec.create ~max_threads:threads () in
  for i = 1 to prefill do
    Sec.push s ~tid:0 i
  done;
  let counts = Array.make threads 0 in
  let body tid () =
    let continue = ref true in
    while !continue do
      match Sec.pop s ~tid with
      | Some _ -> counts.(tid) <- counts.(tid) + 1
      | None -> continue := false
    done
  in
  let ds = List.init (threads - 1) (fun i -> Domain.spawn (body (i + 1))) in
  body 0 ();
  List.iter Domain.join ds;
  Alcotest.(check int) "every node popped exactly once" prefill
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "stack empty" 0 (Sec.depth s)

(* ------------------------------------------------------------------ *)
(* Property tests across configurations                                 *)

let qcheck_sequential_any_config =
  (* Sequential LIFO semantics must hold under every aggregator count and
     freezer-backoff setting. *)
  QCheck.Test.make ~name:"SEC: sequential model under any config" ~count:100
    QCheck.(
      triple (int_range 1 5) (int_range 0 64) (list_of_size (Gen.int_range 0 40) (option small_int)))
    (fun (aggs, backoff, ops) ->
      let config =
        {
          Config.default with
          Config.num_aggregators = aggs;
          freeze_backoff = backoff;
        }
      in
      let s = Sec.create_with ~config ~max_threads:1 () in
      let model = Sec_spec.Seq_stack.create () in
      List.for_all
        (function
          | Some v ->
              Sec.push s ~tid:0 v;
              Sec_spec.Seq_stack.push model v;
              true
          | None ->
              Sec.pop s ~tid:0 = Sec_spec.Seq_stack.pop model
              && Sec.peek s ~tid:0 = Sec_spec.Seq_stack.peek model)
        ops)

let qcheck_stats_percentages =
  (* However the counters land, the derived percentages are consistent. *)
  QCheck.Test.make ~name:"SEC stats: percentages sum to 100" ~count:200
    QCheck.(pair (int_range 1 1000) (int_range 0 1000))
    (fun (ops, elim_pairs) ->
      let eliminated = min ops (2 * elim_pairs) in
      let eliminated = eliminated - (eliminated mod 2) in
      let st =
        {
          Stats.batches = 1;
          operations = ops;
          eliminated;
          combined = ops - eliminated;
          excluded = 0;
        }
      in
      abs_float (Stats.pct_eliminated st +. Stats.pct_combined st -. 100.)
      < 1e-9)

(* Regression: more than [max_threads] announcements landing in one batch
   used to trip [assert (seq < capacity)] — and, without the assert, write
   past the elimination array — on the push path, because every retry FAAs
   a fresh sequence number. Deterministically provoked in the simulator:
   one aggregator, a long freeze window, six pushers into a stack sized
   for two. Overflowing announcers must now wait out the batch and retry.
   Every fetch&add of this configuration (no statistics, no recycling,
   static routing) is an announcement, so the wrapper below sees each
   sequence number handed out, and at least one must reach the
   capacity. *)
let test_capacity_overflow () =
  let module SP = Sec_sim.Sim.Prim in
  let capacity = 2 in
  let past_capacity = ref 0 in
  let module Observed = struct
    include (SP : Sec_prim.Prim_intf.S with module Atomic := SP.Atomic)

    module Atomic = struct
      include SP.Atomic

      let fetch_and_add a n =
        let seq = SP.Atomic.fetch_and_add a n in
        if seq >= capacity then Stdlib.incr past_capacity;
        seq
    end
  end in
  let module SimSec = Sec_core.Sec_stack.Make (Observed) in
  let config =
    {
      Config.default with
      Config.num_aggregators = 1;
      freeze_backoff = 50_000;
    }
  in
  let popped, _ =
    Sec_sim.Sim.run ~seed:7 ~topology:Sec_sim.Topology.testbox (fun () ->
        let s = SimSec.create_with ~config ~max_threads:capacity () in
        for i = 1 to 6 do
          Sec_sim.Sim.spawn (fun () -> SimSec.push s ~tid:(i mod 2) i)
        done;
        Sec_sim.Sim.await_all ();
        let out = ref [] in
        (try
           while true do
             match SimSec.pop s ~tid:0 with
             | Some v -> out := v :: !out
             | None -> raise Exit
           done
         with Exit -> ());
        List.sort compare !out)
  in
  Alcotest.(check (list int)) "all pushes land" [ 1; 2; 3; 4; 5; 6 ] popped;
  Alcotest.(check bool)
    (Printf.sprintf "overflow path exercised (%d sequence numbers >= %d)"
       !past_capacity capacity)
    true (!past_capacity > 0)

let test_tid_to_aggregator_coverage () =
  (* Every aggregator must receive traffic when tids cover [0, K). *)
  for aggs = 1 to 5 do
    let s =
      Sec.create_with ~config:(with_aggs ~stats:true aggs) ~max_threads:8 ()
    in
    for tid = 0 to 7 do
      Sec.push s ~tid tid
    done;
    Alcotest.(check int)
      (Printf.sprintf "%d aggregators hold all pushes" aggs)
      8 (Sec.depth s)
  done

(* ------------------------------------------------------------------ *)
(* Freezer's initial probe                                              *)

module SP = Sec_sim.Sim.Prim
module SimSec = Sec_core.Sec_stack.Make (SP)

module SimPool = (val Sec_harness.Registry.pool.Sec_harness.Registry.maker) (SP)

(* The stack and the pool share the batch protocol, so both take each
   lone-fiber check. *)
let lone_subjects : (module Sec_spec.Stack_intf.S) list =
  [ (module SimSec); (module SimPool) ]

(* A freezer that froze the aggregator's previous batch alone probes for
   one relax unit instead of 512. One simulated fiber alternating
   push/pop used to spend ~610 virtual cycles per operation, 512 of them
   in that probe; the bound below is under the probe alone. *)
let test_lone_fiber_skips_probe () =
  let ops = 500 in
  List.iter
    (fun (module S : Sec_spec.Stack_intf.S) ->
      let cycles, _ =
        Sec_sim.Sim.run ~seed:1 ~topology:Sec_sim.Topology.emerald (fun () ->
            let s = S.create ~max_threads:1 () in
            let elapsed = ref 0L in
            Sec_sim.Sim.spawn (fun () ->
                let start = SP.now_ns () in
                for i = 1 to ops do
                  S.push s ~tid:0 i;
                  ignore (S.pop s ~tid:0)
                done;
                elapsed := Int64.sub (SP.now_ns ()) start);
            Sec_sim.Sim.await_all ();
            Int64.to_int !elapsed)
      in
      let per_op = cycles / (2 * ops) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d virtual cycles/op under 150" S.name per_op)
        true (per_op < 150))
    lone_subjects

(* On an aggregator that one thread id owns (here [max_threads = 1]), a
   batch frozen with one operation is closed, reset and reopened in place
   instead of being replaced, so a lone fiber builds no batch after
   [create]. [allocs] counts every push's node (recycling is off) plus
   every batch built at a freeze; before the reuse, each of the 1000
   operations built one. The node count is a floor: a structure that
   allocates without counting reads 0 here. *)
let test_lone_fiber_builds_no_batches () =
  let ops = 1000 in
  List.iter
    (fun (module S : Sec_spec.Stack_intf.S) ->
      let (), stats =
        Sec_sim.Sim.run ~seed:1 ~topology:Sec_sim.Topology.emerald (fun () ->
            let s = S.create ~max_threads:1 () in
            Sec_sim.Sim.spawn (fun () ->
                for i = 1 to ops / 2 do
                  S.push s ~tid:0 i;
                  ignore (S.pop s ~tid:0)
                done);
            Sec_sim.Sim.await_all ())
      in
      let allocs = stats.Sec_sim.Sim.allocs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d allocations, at least one node per push"
           S.name allocs)
        true
        (allocs >= ops / 2);
      let batches = allocs - (ops / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d batches built, at most 2" S.name batches)
        true (batches <= 2))
    lone_subjects

(* The same natively: one domain alternating push and pop on an
   aggregator it owns allocated about 240 words per operation when each
   freeze built a batch (8 padded counters and flags plus a padded slot
   per thread); what is left is the node, its option boxes and
   closures. *)
let test_lone_domain_allocation () =
  let s = Sec.create_with ~config:(with_aggs 1) ~max_threads:1 () in
  let rounds = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to rounds do
    Sec.push s ~tid:0 i;
    ignore (Sec.pop s ~tid:0)
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int (2 * rounds) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words/op under 60" per_op)
    true (per_op < 60.)

(* Under contention the previous batch's degree is far above 1, so every
   freezer keeps the full probe and gathers the same batches as before.
   56 fibers on emerald at 50/50 (perfbench's sim-update shape), 200k
   cycles, seed 1, batched 27.149 operations per batch before the gate
   existed. *)
let test_contended_degree_kept () =
  let st =
    Sec_harness.Sim_runner.run_sec_stats ~config:Config.default
      ~topology:Sec_sim.Topology.emerald ~threads:56 ~duration_cycles:200_000
      ~mix:Sec_harness.Workload.update_heavy ~seed:1 ()
  in
  let degree = Stats.batching_degree st in
  Alcotest.(check bool)
    (Printf.sprintf "batching degree %.3f within 1%% of 27.149" degree)
    true
    (Float.abs (degree -. 27.149) <= 0.01 *. 27.149)

(* Four fibers, each alone on one of four aggregators, all skip the
   probe and meet only at [top]. Without the paced retry their combiners
   fail about eight CASes per operation and the run drops to ~9.4 Mops/s
   (16.4 with the probe on every operation); pacing keeps it near 14.7. *)
let test_lone_combiners_paced () =
  let e = Sec_harness.Registry.sec_with ~aggregators:4 ~label:"SEC_Agg4" () in
  List.iter
    (fun seed ->
      let m =
        Sec_harness.Sim_runner.run e.Sec_harness.Registry.maker
          ~topology:Sec_sim.Topology.emerald ~threads:4
          ~duration_cycles:300_000 ~mix:Sec_harness.Workload.update_heavy
          ~seed ()
      in
      let mops = m.Sec_harness.Measurement.mops in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %.2f Mops/s at least 12" seed mops)
        true (mops >= 12.))
    [ 1; 2; 3 ]

(* Push-only, 28 fibers, default configuration: a fiber briefly alone on
   its aggregator skips the probe, and its short operations used to land
   between the big batches' combiners' reads and CASes in lockstep,
   dropping this point from 17.6 Mops/s (probe on every operation) to
   11.0. Combiners that keep failing now pace their retries. *)
let test_push_only_lockstep_broken () =
  let m =
    Sec_harness.Sim_runner.run Sec_harness.Registry.sec.Sec_harness.Registry.maker
      ~topology:Sec_sim.Topology.emerald ~threads:28 ~duration_cycles:300_000
      ~mix:Sec_harness.Workload.push_only ~seed:1 ()
  in
  let mops = m.Sec_harness.Measurement.mops in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f Mops/s at least 15" mops)
    true (mops >= 15.)

(* Two domains alternating push/pop on one aggregator: each batch usually
   holds one operation, but consecutive batches have different freezers,
   so the full probe stays in force where the two can meet. The recorded
   histories must stay linearizable. *)
let test_alternating_pair_linearizable () =
  let module I = Sec_spec.History.Instrument (P) (Sec_agg1) in
  let rounds = 20 and pairs = 6 in
  let gave_up = ref 0 in
  for round = 1 to rounds do
    let t = I.create ~max_threads:2 () in
    let body tid () =
      for i = 1 to pairs do
        I.push t ~tid (Testkit.tag ~tid ((round * 100) + i));
        ignore (I.pop t ~tid)
      done
    in
    let d = Domain.spawn (body 1) in
    body 0 ();
    Domain.join d;
    match Sec_spec.Lin_check.check (Sec_spec.History.events t.history) with
    | Sec_spec.Lin_check.Linearizable -> ()
    | Sec_spec.Lin_check.Gave_up -> incr gave_up
    | Sec_spec.Lin_check.Not_linearizable ->
        Alcotest.failf "round %d NOT linearizable" round
  done;
  Alcotest.(check bool) "some round concluded" true (!gave_up < rounds)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sec"
    [
      ("standard (2 aggregators)", Testkit.standard_suite (module Sec_agg2));
      ("standard (1 aggregator)", Testkit.standard_suite (module Sec_agg1));
      ( "standard (3 aggregators)",
        Testkit.standard_suite ~threads:6 (module Sec_agg3) );
      ( "standard (5 aggregators)",
        Testkit.standard_suite ~threads:5 (module Sec_agg5) );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "accessor" `Quick test_config_accessor;
        ] );
      ( "single thread",
        [
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "pop beyond depth" `Quick test_pop_beyond_depth;
          Alcotest.test_case "interleaved types" `Quick test_interleaved_types;
        ] );
      ( "stats",
        [
          Alcotest.test_case "single thread batches" `Quick
            test_stats_single_thread;
          Alcotest.test_case "accounting invariant" `Quick
            test_stats_accounting_invariant;
          Alcotest.test_case "elimination under symmetry" `Quick
            test_stats_elimination_under_symmetry;
          Alcotest.test_case "elimination under symmetry (sim)" `Quick
            test_stats_elimination_under_symmetry_sim;
          Alcotest.test_case "helpers" `Quick test_stats_helpers;
        ] );
      ( "freeze probe",
        [
          Alcotest.test_case "lone fiber skips the probe" `Quick
            test_lone_fiber_skips_probe;
          Alcotest.test_case "contended degree kept" `Quick
            test_contended_degree_kept;
          Alcotest.test_case "lone combiners paced" `Quick
            test_lone_combiners_paced;
          Alcotest.test_case "push-only lockstep broken" `Quick
            test_push_only_lockstep_broken;
          Alcotest.test_case "alternating pair linearizable" `Quick
            test_alternating_pair_linearizable;
        ] );
      ( "lone batch reuse",
        [
          Alcotest.test_case "lone fiber builds no batches" `Quick
            test_lone_fiber_builds_no_batches;
          Alcotest.test_case "lone domain allocation" `Quick
            test_lone_domain_allocation;
        ] );
      ( "homogeneous workloads",
        [
          Alcotest.test_case "parallel push-only" `Quick test_push_only_parallel;
          Alcotest.test_case "parallel pop-only" `Quick test_pop_only_parallel;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_sequential_any_config;
          QCheck_alcotest.to_alcotest qcheck_stats_percentages;
          Alcotest.test_case "aggregator coverage" `Quick
            test_tid_to_aggregator_coverage;
          Alcotest.test_case "batch capacity overflow" `Quick
            test_capacity_overflow;
        ] );
    ]
