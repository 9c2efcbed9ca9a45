(* The wait-free slab store (lib/reclaim/slab.ml), the only slow path
   of the node magazines: chain-level slab semantics and park/adopt
   hand-off, lockstep equivalence of the slab-backed TRB-EBR with plain
   Treiber, its simulated histories and allocation count, and the
   allocator's cross-domain CAS and fresh-node counts pinned on the
   same deterministic microbenchmark `sec_bench alloc` runs. *)

module Slab = Sec_reclaim.Slab
module NSl = Sec_reclaim.Slab.Make (Sec_prim.Native)
module Topology = Sec_sim.Topology
module Sim = Sec_sim.Sim
module SP = Sim.Prim
module AB = Sec_harness.Alloc_bench

module type STACK = Sec_spec.Stack_intf.S

(* ------------------------------------------------------------------ *)
(* Slab store semantics (native substrate; one thread drives several
   tids, legal because no two tids ever run concurrently here). *)

let test_chain_round_trip () =
  let s = NSl.create ~chain_len:4 ~slab_chains:2 ~max_threads:2 () in
  Alcotest.(check int) "chain_len accessor" 4 (NSl.chain_len s);
  Alcotest.(check bool) "dry store misses" true (NSl.alloc_chain s ~tid:0 = None);
  let chain = (4, [ ref 1; ref 2; ref 3; ref 4 ]) in
  NSl.free_chain s ~tid:0 chain;
  (match NSl.alloc_chain s ~tid:0 with
  | Some (len, nodes) ->
      Alcotest.(check int) "length survives" 4 len;
      Alcotest.(check bool) "same chain comes back" true (nodes == snd chain)
  | None -> Alcotest.fail "the freed chain should be allocatable");
  let st = NSl.stats s in
  Alcotest.(check int) "one chain in" 1 st.Slab.chain_puts;
  Alcotest.(check int) "one chain out" 1 st.Slab.chain_gets;
  Alcotest.(check int) "one miss tallied" 1 st.Slab.fresh

let test_park_and_adopt () =
  Slab.Global.reset ();
  (* slab_chains = 2: the second free_chain fills tid 0's active slab
     and parks it on the shared partial stack. *)
  let s = NSl.create ~chain_len:2 ~slab_chains:2 ~max_threads:4 () in
  NSl.free_chain s ~tid:0 (2, [ ref 1; ref 2 ]);
  NSl.free_chain s ~tid:0 (2, [ ref 3; ref 4 ]);
  let st = NSl.stats s in
  Alcotest.(check int) "full slab parked" 1 st.Slab.parks;
  Alcotest.(check int) "park kept its nodes pooled" 4 st.Slab.pooled;
  Alcotest.(check int) "one slab on the partial stack" 1 st.Slab.parked_slabs;
  (* tid 3 never freed anything: its first alloc adopts the parked
     slab in ONE CAS and drains both chains from it. *)
  (match NSl.alloc_chain s ~tid:3 with
  | Some (len, _) -> Alcotest.(check int) "adopted chain length" 2 len
  | None -> Alcotest.fail "adoption should refill tid 3");
  (match NSl.alloc_chain s ~tid:3 with
  | Some _ -> ()
  | None -> Alcotest.fail "the adopted slab held a second chain");
  let st = NSl.stats s in
  Alcotest.(check int) "one adoption" 1 st.Slab.adopts;
  Alcotest.(check int) "store drained" 0 st.Slab.pooled;
  (* the Global mirror saw the same wait-free traffic: no retries. *)
  let g = Slab.Global.snapshot () in
  Alcotest.(check int) "global parks" 1 g.Slab.Global.parks;
  Alcotest.(check int) "global adopts" 1 g.Slab.Global.adopts;
  Alcotest.(check int) "no lost CAS in a sequential run" 0
    (Slab.Global.cas_retries g)

let test_node_granular_faces () =
  let s = NSl.create ~chain_len:2 ~slab_chains:2 ~max_threads:2 () in
  let a = ref 1 and b = ref 2 in
  NSl.free s ~tid:0 a;
  NSl.free s ~tid:0 b;
  let got_b = match NSl.alloc s ~tid:0 with Some n -> n == b | _ -> false in
  Alcotest.(check bool) "loose list is LIFO" true got_b;
  let got_a = match NSl.alloc s ~tid:0 with Some n -> n == a | _ -> false in
  Alcotest.(check bool) "then the earlier node" true got_a;
  Alcotest.(check bool) "then dry" true (NSl.alloc s ~tid:0 = None)

let test_create_validates () =
  Alcotest.check_raises "chain_len must be positive"
    (Invalid_argument "Slab.create: chain_len must be at least 1") (fun () ->
      ignore (NSl.create ~chain_len:0 ()))

(* ------------------------------------------------------------------ *)
(* Lockstep differential: the slab-backed TRB-EBR is observationally
   identical to plain Treiber. The phased workload (mixed ops, then a
   deep drain, then a refill) forces the magazines past capacity so
   chains really cross the slab store. *)

module NT = Sec_stacks.Treiber.Make (Sec_prim.Native)
module NE = Sec_reclaim.Treiber_ebr.Make (Sec_prim.Native)

let test_differential_lockstep () =
  Slab.Global.reset ();
  let t = NT.create ~max_threads:1 () in
  let e = NE.create ~max_threads:1 () in
  let state = ref 0x2545F491 in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let step op =
    match op with
    | `Push i ->
        NT.push t ~tid:0 i;
        NE.push e ~tid:0 i
    | `Pop ->
        let a = NT.pop t ~tid:0 and b = NE.pop e ~tid:0 in
        Alcotest.(check (option int)) "pop agrees" a b
    | `Peek ->
        let a = NT.peek t ~tid:0 and b = NE.peek e ~tid:0 in
        Alcotest.(check (option int)) "peek agrees" a b
  in
  for i = 1 to 4_000 do
    match rand 5 with
    | 0 | 1 | 2 -> step (`Push i)
    | 3 -> step `Pop
    | _ -> step `Peek
  done;
  (* deep drain: hundreds of recycles overflow the magazines... *)
  for _ = 1 to 5_000 do
    step `Pop
  done;
  (* ...and the refill drains them back through the slab store. *)
  for i = 1 to 400 do
    step (`Push i)
  done;
  for _ = 1 to 500 do
    step `Pop
  done;
  let g = Slab.Global.snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "chains crossed the slab store (puts %d, gets %d)"
       g.Slab.Global.chain_puts g.Slab.Global.chain_gets)
    true
    (g.Slab.Global.chain_puts > 0 && g.Slab.Global.chain_gets > 0)

(* Under the simulator's interleavings: recorded histories of the
   slab-backed TRB-EBR stay linearizable against the LIFO spec. *)
module SimTrbEbr = Sec_reclaim.Treiber_ebr.Make (SP)

let test_sim_linearizable () =
  let module I = Sec_spec.History.Instrument (SP) (SimTrbEbr) in
  for seed = 1 to 6 do
    let events, _ =
      Sim.run ~seed ~jitter:40 ~topology:Topology.testbox (fun () ->
          let t = I.create ~max_threads:4 () in
          for _ = 1 to 4 do
            Sim.spawn (fun () ->
                let tid = Sim.fiber_id () in
                for i = 1 to 6 do
                  match SP.rand_int 5 with
                  | 0 | 1 -> I.push t ~tid ((tid * 1_000_000) + i)
                  | 2 | 3 -> ignore (I.pop t ~tid)
                  | _ -> ignore (I.peek t ~tid)
                done)
          done;
          Sim.await_all ();
          Sec_spec.History.events t.I.history)
    in
    match Sec_spec.Lin_check.check events with
    | Sec_spec.Lin_check.Linearizable -> ()
    | Sec_spec.Lin_check.Gave_up ->
        Printf.eprintf "[TRB-EBR] lin check gave up (seed %d)\n%!" seed
    | Sec_spec.Lin_check.Not_linearizable ->
        Alcotest.failf "TRB-EBR: seed %d produced a non-linearizable history"
          seed
  done

(* Fewer allocations than plain Treiber on the same pinned workload,
   counted by the simulator's first-class allocation statistic. *)
module SimTrb = Sec_stacks.Treiber.Make (SP)

let sim_allocs (module S : STACK) =
  let _, stats =
    Sim.run ~seed:11 ~jitter:3 ~topology:Topology.testbox (fun () ->
        let s = S.create ~max_threads:8 () in
        for _ = 1 to 4 do
          Sim.spawn (fun () ->
              let tid = Sim.fiber_id () in
              for i = 1 to 300 do
                S.push s ~tid i;
                ignore (S.pop s ~tid)
              done)
        done;
        Sim.await_all ())
  in
  stats.Sim.allocs

let test_fewer_allocations_than_treiber () =
  let trb = sim_allocs (module SimTrb) in
  let ebr = sim_allocs (module SimTrbEbr) in
  Alcotest.(check bool)
    (Printf.sprintf "TRB-EBR allocates less (TRB %d, TRB-EBR %d)" trb ebr)
    true (ebr < trb)

(* ------------------------------------------------------------------ *)
(* The allocator's traffic, pinned on the deterministic simulated
   microbenchmark `sec_bench alloc` runs (4 threads, 50 bursts of 96,
   seed 1): exact work, no cross-domain CAS at all while every thread
   frees what it allocates, and upper bounds on the CASes and fresh
   nodes of the producer/consumer phase. The bounds may only tighten. *)

let test_pinned_cas_and_fresh () =
  List.iter
    (fun (phase, ops, max_cas, max_fresh) ->
      let r = AB.run_sim ~threads:4 ~iters:50 ~burst:96 ~seed:1 ~phase () in
      let label = AB.phase_to_string phase in
      Alcotest.(check int) (label ^ ": round-trips") ops r.AB.ops;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d cross-domain CASes <= %d" label r.AB.cross_cas
           max_cas)
        true
        (r.AB.cross_cas <= max_cas);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d fresh nodes <= %d" label r.AB.fresh max_fresh)
        true (r.AB.fresh <= max_fresh))
    [ (AB.Local, 19_200, 0, 768); (AB.Remote, 9_600, 89, 2_094) ]

let () =
  Alcotest.run "slab"
    [
      ( "slab store",
        [
          Alcotest.test_case "chain round trip" `Quick test_chain_round_trip;
          Alcotest.test_case "park and adopt" `Quick test_park_and_adopt;
          Alcotest.test_case "node-granular faces" `Quick
            test_node_granular_faces;
          Alcotest.test_case "create validates" `Quick test_create_validates;
        ] );
      ( "differential",
        [
          Alcotest.test_case "TRB vs TRB-EBR lockstep" `Quick
            test_differential_lockstep;
          Alcotest.test_case "sim histories linearizable" `Quick
            test_sim_linearizable;
          Alcotest.test_case "fewer allocations than Treiber" `Quick
            test_fewer_allocations_than_treiber;
        ] );
      ( "alloc microbench (sim, pinned seed)",
        [
          Alcotest.test_case "cross-domain CAS and fresh pinned" `Quick
            test_pinned_cas_and_fresh;
        ] );
    ]
