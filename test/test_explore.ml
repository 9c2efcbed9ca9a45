(* Tests for the bounded model checker: it must PASS correct code over the
   whole bounded schedule space, FAIL deliberately broken code with a
   reproducible schedule, and cope with the blocking SEC machinery. *)

module Explore = Sec_sim.Explore
module SP = Sec_sim.Sim.Prim

let result_kind = function
  | Explore.Passed _ -> "passed"
  | Explore.Failed { kind = Explore.Check_failed; _ } -> "check_failed"
  | Explore.Failed { kind = Explore.Fiber_raised _; _ } -> "raised"
  | Explore.Failed { kind = Explore.Livelock; _ } -> "livelock"
  | Explore.Failed { kind = Explore.Race_detected _; _ } -> "race"
  | Explore.Failed { kind = Explore.Reclamation_violation _; _ } ->
      "reclamation"

(* -------------------------------------------------------------------- *)
(* A racy read-modify-write: increment as get-then-set. Two fibers, two
   increments each: some schedule loses an update. *)

let racy_counter_scenario () =
  let c = SP.Atomic.make 0 in
  let incr_racy () =
    for _ = 1 to 2 do
      let v = SP.Atomic.get c in
      SP.Atomic.set c (v + 1)
    done
  in
  ([ incr_racy; incr_racy ], fun () -> SP.Atomic.get c = 4)

let test_finds_lost_update () =
  match Explore.for_all ~max_preemptions:1 racy_counter_scenario with
  | Explore.Failed { kind = Explore.Check_failed; schedule; _ } ->
      Alcotest.(check bool) "needs at least one forced preemption" true
        (List.length schedule >= 1)
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_replay_reproduces () =
  match Explore.for_all ~max_preemptions:1 racy_counter_scenario with
  | Explore.Failed { schedule; _ } -> (
      match Explore.replay ~schedule racy_counter_scenario with
      | Explore.Ok_run false -> ()
      | Explore.Ok_run true -> Alcotest.fail "replay did not reproduce"
      | Explore.Raised m -> Alcotest.failf "replay raised: %s" m
      | Explore.Livelocked -> Alcotest.fail "replay livelocked")
  | other -> Alcotest.failf "expected a violation, got %s" (result_kind other)

(* A violation's schedule must survive a serialize/parse round-trip and
   still reproduce the same violation kind when pinned — this is the
   workflow for committing a reproduction to a bug report. *)
let test_serialized_replay_reproduces () =
  match Explore.for_all ~max_preemptions:1 racy_counter_scenario with
  | Explore.Failed { kind = Explore.Check_failed; schedule; _ } -> (
      let serialized = Explore.schedule_to_string schedule in
      let parsed = Explore.schedule_of_string serialized in
      Alcotest.(check bool) "round-trip preserves the schedule" true
        (parsed = schedule);
      (* Pin the parsed schedule: the same violation kind must reproduce
         deterministically, run after run. *)
      for _ = 1 to 3 do
        match Explore.replay ~schedule:parsed racy_counter_scenario with
        | Explore.Ok_run false -> ()
        | Explore.Ok_run true ->
            Alcotest.fail "pinned schedule did not reproduce Check_failed"
        | Explore.Raised m -> Alcotest.failf "pinned replay raised: %s" m
        | Explore.Livelocked -> Alcotest.fail "pinned replay livelocked"
      done)
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_schedule_string_roundtrip () =
  let open Explore in
  let s = [ { step = 4; fiber = 1 }; { step = 9; fiber = 0 } ] in
  Alcotest.(check string) "to_string" "4:1;9:0" (schedule_to_string s);
  Alcotest.(check bool) "of_string inverts" true
    (schedule_of_string (schedule_to_string s) = s);
  Alcotest.(check bool) "empty round-trips" true
    (schedule_of_string (schedule_to_string []) = []);
  match schedule_of_string "bogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed input must raise"

(* The deliberately racy get-then-set increment must be flagged by the
   race detector itself (not just by the final check): both fibers store
   blindly without an ordering acquire between them. *)
let test_race_detector_flags_racy_scenario () =
  match
    Explore.for_all ~max_preemptions:1 ~detect_races:true racy_counter_scenario
  with
  | Explore.Failed { kind = Explore.Race_detected msg; schedule; _ } ->
      Alcotest.(check bool) "report names the race" true
        (String.length msg > 0);
      Alcotest.(check bool) "has a reproducing schedule" true
        (List.length schedule >= 1)
  | other -> Alcotest.failf "expected Race_detected, got %s" (result_kind other)

let test_correct_faa_passes () =
  let scenario () =
    let c = SP.Atomic.make 0 in
    let incr_atomic () =
      for _ = 1 to 2 do
        ignore (SP.Atomic.fetch_and_add c 1)
      done
    in
    ([ incr_atomic; incr_atomic ], fun () -> SP.Atomic.get c = 4)
  in
  match Explore.for_all ~max_preemptions:2 scenario with
  | Explore.Passed { schedules; truncated } ->
      Alcotest.(check bool) "explored more than one schedule" true
        (schedules > 1);
      Alcotest.(check bool) "space not truncated" false truncated
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* -------------------------------------------------------------------- *)
(* DPOR pruning: conflict-driven branching must find the same seeded bug
   while visiting measurably fewer schedules than exhaustive branching. *)

let schedules_of = function
  | Explore.Passed { schedules; _ } -> schedules
  | Explore.Failed { explored; _ } -> explored

let test_dpor_finds_lost_update () =
  match
    Explore.for_all ~max_preemptions:1 ~strategy:`Dpor racy_counter_scenario
  with
  | Explore.Failed { kind = Explore.Check_failed; _ } -> ()
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_dpor_visits_fewer_schedules () =
  (* A correct scenario, so both strategies sweep their whole space. *)
  let scenario () =
    let c = SP.Atomic.make 0 in
    let private_work = SP.Atomic.make 0 in
    let body () =
      (* Independent accesses dilute the conflict density, which is
         exactly where DPOR wins: preemptions placed between accesses to
         different cells commute and are pruned. *)
      for _ = 1 to 3 do
        ignore (SP.Atomic.get private_work)
      done;
      ignore (SP.Atomic.fetch_and_add c 1)
    in
    ([ body; body ], fun () -> SP.Atomic.get c = 2)
  in
  let exhaustive =
    schedules_of (Explore.for_all ~max_preemptions:2 scenario)
  in
  let dpor =
    schedules_of (Explore.for_all ~max_preemptions:2 ~strategy:`Dpor scenario)
  in
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) < exhaustive (%d)" dpor exhaustive)
    true
    (dpor < exhaustive);
  (* "Measurably": at least 2x fewer on this conflict-sparse scenario. *)
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) <= exhaustive/2 (%d)" dpor (exhaustive / 2))
    true
    (dpor <= exhaustive / 2)

(* -------------------------------------------------------------------- *)
(* A broken "Treiber" whose pop publishes with a plain store instead of a
   CAS: two concurrent pops can return the same node. *)

let test_finds_broken_pop () =
  let scenario () =
    let top = SP.Atomic.make [ 1; 2; 3 ] in
    let popped = Array.make 2 [] in
    let bad_pop slot () =
      match SP.Atomic.get top with
      | [] -> ()
      | v :: rest ->
          SP.Atomic.set top rest (* BUG: should be compare_and_set *);
          popped.(slot) <- v :: popped.(slot)
    in
    ( [ bad_pop 0; bad_pop 1 ],
      fun () ->
        (* No value may be popped twice. *)
        let all = popped.(0) @ popped.(1) in
        List.length (List.sort_uniq compare all) = List.length all )
  in
  match Explore.for_all ~max_preemptions:1 scenario with
  | Explore.Failed { kind = Explore.Check_failed; _ } -> ()
  | other -> Alcotest.failf "expected Check_failed, got %s" (result_kind other)

let test_real_treiber_passes () =
  let module T = Sec_stacks.Treiber.Make (SP) in
  let scenario () =
    let s = T.create ~max_threads:2 () in
    T.push s ~tid:0 100;
    let popped = Array.make 2 [] in
    let fiber slot () =
      T.push s ~tid:slot slot;
      match T.pop s ~tid:slot with
      | Some v -> popped.(slot) <- [ v ]
      | None -> ()
    in
    ( [ fiber 0; fiber 1 ],
      fun () ->
        let rec drain acc =
          match T.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
        in
        let all = popped.(0) @ popped.(1) @ drain [] in
        (* Conservation: exactly the three pushed values, each once. *)
        List.sort compare all = [ 0; 1; 100 ] )
  in
  match Explore.for_all ~max_preemptions:2 scenario with
  | Explore.Passed { schedules; _ } ->
      Alcotest.(check bool) "dozens of schedules" true (schedules > 10)
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* -------------------------------------------------------------------- *)
(* SEC under exploration: the full blocking machinery (freezing,
   elimination, combining) must survive every bounded schedule. *)

let sec_scenario () =
  let module Sec = Sec_core.Sec_stack.Make (SP) in
  let s = Sec.create ~max_threads:2 () in
  Sec.push s ~tid:0 100;
  let results = Array.make 2 [] in
  let fiber slot () =
    Sec.push s ~tid:slot slot;
    match Sec.pop s ~tid:slot with
    | Some v -> results.(slot) <- [ v ]
    | None -> ()
  in
  let module Seq = Sec_spec.Seq_stack in
  ignore (Seq.create ());
  ( [ fiber 0; fiber 1 ],
    fun () ->
      let rec drain acc =
        match Sec.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
      in
      let all = results.(0) @ results.(1) @ drain [] in
      List.sort compare all = [ 0; 1; 100 ] )

let test_dpor_passes_correct_sec () =
  match
    Explore.for_all ~max_preemptions:2 ~quantum:6 ~max_schedules:5_000
      ~strategy:`Dpor sec_scenario
  with
  | Explore.Passed _ -> ()
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

let test_sec_conservation_all_schedules () =
  match
    Explore.for_all ~max_preemptions:2 ~quantum:6 ~max_schedules:5_000
      sec_scenario
  with
  | Explore.Passed { schedules; _ } ->
      Alcotest.(check bool) "thousands of schedules" true (schedules > 1_000)
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

let test_sec_elimination_all_schedules () =
  (* A symmetric push/pop pair: across every schedule, the pop returns
     either the concurrent push or the prefilled value — never None. *)
  let module Sec = Sec_core.Sec_stack.Make (SP) in
  let scenario () =
    let s = Sec.create ~max_threads:2 () in
    Sec.push s ~tid:0 7;
    let got = ref (Some (-1)) in
    ( [
        (fun () -> Sec.push s ~tid:0 8);
        (fun () -> got := Sec.pop s ~tid:1);
      ],
      fun () -> match !got with Some 7 | Some 8 -> true | _ -> false )
  in
  match
    Explore.for_all ~max_preemptions:1 ~quantum:6 ~max_schedules:5_000 scenario
  with
  | Explore.Passed _ -> ()
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* On an aggregator one thread id owns, a batch frozen with one
   operation is closed, reset and reopened in place. Two aggregators for
   three ids: tid 1 owns aggregator 1 and reuses its batch, tids 0 and 2
   share aggregator 0 and retire every batch. Fibers 0 and 1, three
   operations each, so the reused batch's direct CASes on [top]
   interleave with a freezer's probe and a combiner's CAS. Every history,
   drained through recorded pops, must be linearizable. *)
module Sec_one_exclusive = struct
  include Sec_core.Sec_stack.Make (SP)

  let two =
    { Sec_core.Config.default with Sec_core.Config.num_aggregators = 2 }

  let create ?max_threads:_ () = create_with ~config:two ~max_threads:3 ()
end

let test_sec_lone_reuse_linearizable () =
  let module R = Sec_spec.History.Instrument (SP) (Sec_one_exclusive) in
  let scenario () =
    let r = R.create ~max_threads:3 () in
    let body tid () =
      R.push r ~tid ((10 * tid) + 1);
      ignore (R.pop r ~tid);
      R.push r ~tid ((10 * tid) + 2)
    in
    ( [ body 0; body 1 ],
      fun () ->
        let rec drain k =
          if k > 0 then
            match R.pop r ~tid:0 with Some _ -> drain (k - 1) | None -> ()
        in
        drain 6;
        Sec_spec.Lin_check.check (Sec_spec.History.events r.R.history)
        = Sec_spec.Lin_check.Linearizable )
  in
  match
    Explore.for_all ~max_preemptions:2 ~quantum:40 ~max_schedules:20_000
      scenario
  with
  | Explore.Passed { schedules; truncated } ->
      Alcotest.(check bool) "thousands of schedules" true (schedules > 1_000);
      Alcotest.(check bool) "space not truncated" false truncated
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* Two fibers sharing the one id of an exclusive aggregator: a fiber can
   read the batch, be preempted while the other freezes it alone, and
   land its fetch&add on the closed counter, on the batch's next life, or
   between the other's snapshot and close (which then fails and retires
   the batch). The 40-step quantum lets one fiber run a whole freeze in
   a slice, so two forced switches can hold the other between its
   fetch&add and its slot deposit meanwhile; the bounded space is then
   swept completely. Every value pushed must be popped exactly once. *)
let test_sec_lone_reuse_shared_id () =
  let module Sec = Sec_core.Sec_stack.Make (SP) in
  let scenario () =
    let s = Sec.create ~max_threads:1 () in
    let popped = ref [] in
    let body base () =
      Sec.push s ~tid:0 (base + 1);
      (match Sec.pop s ~tid:0 with
      | Some v -> popped := v :: !popped
      | None -> ());
      Sec.push s ~tid:0 (base + 2)
    in
    ( [ body 10; body 20 ],
      fun () ->
        let rec drain acc =
          match Sec.pop s ~tid:0 with Some v -> drain (v :: acc) | None -> acc
        in
        List.sort compare (drain !popped) = [ 11; 12; 21; 22 ] )
  in
  match
    Explore.for_all ~max_preemptions:2 ~quantum:40 ~max_schedules:20_000
      scenario
  with
  | Explore.Passed { schedules; truncated } ->
      Alcotest.(check bool) "thousands of schedules" true (schedules > 1_000);
      Alcotest.(check bool) "space not truncated" false truncated
  | other -> Alcotest.failf "expected Passed, got %s" (result_kind other)

(* -------------------------------------------------------------------- *)
(* Pathology detection                                                   *)

let test_livelock_detected () =
  let scenario () =
    let flag = SP.Atomic.make false in
    let spin () =
      while not (SP.Atomic.get flag) do
        SP.cpu_relax ()
      done
    in
    ([ spin ], fun () -> true)
  in
  match Explore.for_all ~max_steps:1_000 scenario with
  | Explore.Failed { kind = Explore.Livelock; _ } -> ()
  | other -> Alcotest.failf "expected Livelock, got %s" (result_kind other)

let test_exception_reported () =
  let scenario () = ([ (fun () -> failwith "boom") ], fun () -> true) in
  match Explore.for_all scenario with
  | Explore.Failed { kind = Explore.Fiber_raised msg; _ } ->
      Alcotest.(check bool) "message mentions boom" true
        (String.length msg > 0)
  | other -> Alcotest.failf "expected Fiber_raised, got %s" (result_kind other)

let test_schedule_count_grows_with_bound () =
  let count bound =
    match
      Explore.for_all ~max_preemptions:bound ~max_schedules:100_000
        racy_counter_scenario
    with
    | Explore.Passed { schedules; _ } -> schedules
    | Explore.Failed { explored; _ } -> explored
  in
  Alcotest.(check int) "zero preemptions = single baseline schedule" 1 (count 0)

let () =
  Alcotest.run "explore"
    [
      ( "bug finding",
        [
          Alcotest.test_case "lost update found" `Quick test_finds_lost_update;
          Alcotest.test_case "violation replays" `Quick test_replay_reproduces;
          Alcotest.test_case "serialized schedule replays" `Quick
            test_serialized_replay_reproduces;
          Alcotest.test_case "schedule string round-trip" `Quick
            test_schedule_string_roundtrip;
          Alcotest.test_case "race detector flags racy scenario" `Quick
            test_race_detector_flags_racy_scenario;
          Alcotest.test_case "broken pop found" `Quick test_finds_broken_pop;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "finds lost update" `Quick
            test_dpor_finds_lost_update;
          Alcotest.test_case "fewer schedules than exhaustive" `Quick
            test_dpor_visits_fewer_schedules;
          Alcotest.test_case "sec passes under dpor" `Slow
            test_dpor_passes_correct_sec;
        ] );
      ( "correct code passes",
        [
          Alcotest.test_case "atomic counter" `Quick test_correct_faa_passes;
          Alcotest.test_case "treiber conservation" `Quick
            test_real_treiber_passes;
          Alcotest.test_case "sec conservation" `Slow
            test_sec_conservation_all_schedules;
          Alcotest.test_case "sec elimination" `Slow
            test_sec_elimination_all_schedules;
          Alcotest.test_case "sec lone reuse linearizable" `Slow
            test_sec_lone_reuse_linearizable;
          Alcotest.test_case "sec lone reuse shared id" `Slow
            test_sec_lone_reuse_shared_id;
        ] );
      ( "pathologies",
        [
          Alcotest.test_case "livelock" `Quick test_livelock_detected;
          Alcotest.test_case "exception" `Quick test_exception_reported;
          Alcotest.test_case "bound semantics" `Quick
            test_schedule_count_grows_with_bound;
        ] );
    ]
