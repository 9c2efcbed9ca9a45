(* The repository benchmark: SEC ([Registry.sec], the paper's default
   configuration) on three closed-loop workloads, each client issuing its
   next operation when the previous one returns.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] prints the end-to-end metrics; [--trace 1] runs the same
   workload again with spans and batch statistics on, times each layer's
   public functions, and prints the per-layer metrics. Every run checks
   the stack's outputs (see {!Probe}) and lin-checks a short recorded
   history. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. README.md maps every
   metric to its layer and workload. *)

module H = Sec_harness
module NP = Sec_prim.Native
module SP = Sec_sim.Sim.Prim

module Native_probe =
  Probe.Make
    (NP)
    (struct
      let now = Probe.host_ns
    end)

module Sim_probe =
  Probe.Make
    (SP)
    (struct
      let now () = Int64.to_int (SP.now_ns ())
    end)

type substrate =
  | Simulated of Sec_sim.Topology.t
      (** virtual cycles, reported as if at [Measurement.assumed_ghz] *)
  | Native  (** real domains, monotonic nanoseconds *)

type workload = {
  name : string;
  substrate : substrate;
  threads : int;
  mix : H.Workload.mix;
}

(* The paper's setting: prefill 1000. *)
let prefill = 1_000

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let workloads =
  let emerald = Sec_sim.Topology.emerald in
  [
    {
      name = "sim-update";
      substrate = Simulated emerald;
      threads = 56;
      mix = H.Workload.update_heavy;
    };
    {
      name = "sim-push";
      substrate = Simulated emerald;
      threads = 56;
      mix = H.Workload.push_only;
    };
    {
      name = "native-update";
      substrate = Native;
      threads = 2;
      mix = H.Workload.update_heavy;
    };
  ]

(* Simulated window per repetition, and native window per repetition.
   Both are fixed so that a seed fixes every simulated figure; [--seconds]
   sets how many repetitions a run makes. *)
let sim_cycles = 1_500_000
let native_window = 0.5

(* Host seconds one repetition takes, used only to turn [--seconds] into
   a repetition count (measured on a 2-core x86-64 host). *)
let sim_rep_host_s = 0.4
let native_rep_host_s = native_window +. 0.06

let reps_for (w : workload) ~seconds =
  let per = match w.substrate with Simulated _ -> sim_rep_host_s | Native -> native_rep_host_s in
  max 3 (int_of_float (float_of_int seconds /. per))

(* Repetition [i] of a run with seed [seed]. *)
let rep_seed ~seed i = (seed * 1000) + i

let ns_per_tick = function
  | Simulated _ -> 1. /. H.Measurement.assumed_ghz
  | Native -> 1.

(* Sim.run's jitter for benchmark runs, as in [Sim_runner]. *)
let sim_jitter = 2

let run_rep (w : workload) ~seed ~make_native ~make_sim ?trace_every ?stop_after () =
  match w.substrate with
  | Simulated topology ->
      let r, stats =
        Sec_sim.Sim.run ~seed ~jitter:sim_jitter ~topology (fun () ->
            Sim_probe.rep ~make:(make_sim ~threads:w.threads) ~threads:w.threads
              ~mix:w.mix ~budget:sim_cycles
              ~seconds_of:(fun c ->
                float_of_int c /. (H.Measurement.assumed_ghz *. 1e9))
              ~op_overhead:H.Sim_runner.loop_overhead ~prefill ~capacity:1024
              ?trace_every ?stop_after ())
      in
      (r, Some stats)
  | Native ->
      let r =
        NP.with_exec ~seed:(Int64.of_int seed) (fun () ->
            Native_probe.rep ~make:(make_native ~threads:w.threads)
              ~threads:w.threads ~mix:w.mix ~budget:native_window
              ~seconds_of:Fun.id ~op_overhead:0 ~prefill ~capacity:(1 lsl 18)
              ?trace_every ?stop_after ())
      in
      (r, None)

let run_entry (w : workload) entry ~seed ?stop_after () =
  run_rep w ~seed
    ~make_native:(Native_probe.of_entry entry)
    ~make_sim:(Sim_probe.of_entry entry)
    ?stop_after ()

(* ------------------------------------------------------------------ *)
(* Linearizability of a short recorded history of the same shape. *)

let lin_check (w : workload) entry ~seed =
  let ops_per_thread = match w.substrate with Simulated _ -> 2 | Native -> 200 in
  let events, init =
    match w.substrate with
    | Simulated topology ->
        fst
          (Sec_sim.Sim.run ~seed ~jitter:sim_jitter ~topology (fun () ->
               Sim_probe.recorded
                 ~make:(Sim_probe.of_entry entry ~threads:w.threads)
                 ~threads:w.threads ~mix:w.mix ~ops_per_thread
                 ~op_overhead:H.Sim_runner.loop_overhead ~prefill ()))
    | Native ->
        NP.with_exec ~seed:(Int64.of_int seed) (fun () ->
            Native_probe.recorded
              ~make:(Native_probe.of_entry entry ~threads:w.threads)
              ~threads:w.threads ~mix:w.mix ~ops_per_thread ~op_overhead:0
              ~prefill ())
  in
  (Sec_spec.Lin_check.check ~max_work:2_000_000 ~init events, List.length events)

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; value : float; unit : string; base : string }

(* A metric that could not be computed is an error, not a number. *)
let json_float name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric %s is not finite (%g)" name v)

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-30s %16.6g %-9s %s\n" m.name m.value m.unit m.base)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_float m.name m.value) m.unit)
          metrics))

let provenance (w : workload) ~seed ~seconds ~trace ~stack ~reps =
  Printf.printf
    "{\"provenance\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %d, \
     \"trace\": %d, \"stack\": \"%s\", \"repetitions\": %d, \"threads\": %d, \
     \"prefill\": %d, \"nproc\": %d, \"ocaml\": \"%s\"}}\n"
    w.name seed seconds trace stack reps w.threads prefill
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* ------------------------------------------------------------------ *)
(* End-to-end run ([--trace 0]) *)

let mops (r : Probe.rep) = float_of_int r.Probe.ops /. r.Probe.window_s /. 1e6

let end_to_end (w : workload) entry ~seed ~reps =
  let runs =
    List.init reps (fun i -> fst (run_entry w entry ~seed:(rep_seed ~seed i) ()))
  in
  let lin, lin_ops = lin_check w entry ~seed in
  let tick = ns_per_tick w.substrate in
  let med f = Sample.median (List.map f runs) in
  (* A shared host stalls the VM often enough that a native repetition's
     p99 swings from 20 to over 40 us from one half-second to the next; a
     bare [Native.relax 512] loop's p99 swings alike, so the stalls are
     not the stack's. p99 takes the repetitions the host disturbed least:
     the lower decile of their p99, not the lowest, which is an outlier
     of its own. *)
  let lower_decile f = Sample.quantile (List.map f runs) 0.1 in
  let samples = List.fold_left (fun a (r : Probe.rep) -> a + Array.length r.latency) 0 runs in
  let ops = List.fold_left (fun a (r : Probe.rep) -> a + r.ops) 0 runs in
  let wrong = List.fold_left (fun a (r : Probe.rep) -> a + r.failed) 0 runs in
  let lin_failed = if lin = Sec_spec.Lin_check.Not_linearizable then 1 else 0 in
  let attempted = ops + lin_ops and failed = wrong + lin_failed in
  let per_rep = Printf.sprintf "median of %d repetitions" reps in
  let metrics =
    [
      { name = "throughput_mops"; value = med mops; unit = "Mops/s"; base = per_rep };
      {
        name = "latency_p50_ns";
        value = med (fun r -> Sample.median_sorted r.latency *. tick);
        unit = "ns";
        base = Printf.sprintf "%s; %d samples" per_rep samples;
      };
      {
        name = "latency_p99_ns";
        value = lower_decile (fun r -> Sample.quantile_sorted r.latency 0.99 *. tick);
        unit = "ns";
        base =
          Printf.sprintf "lower decile of %d repetitions; %d samples" reps samples;
      };
      {
        name = "alloc_bytes_per_op";
        value =
          med (fun r ->
              r.alloc_words *. float_of_int (Sys.word_size / 8)
              /. float_of_int (max 1 r.ops));
        unit = "B/op";
        base = "host OCaml heap bytes in the window / completed ops; " ^ per_rep;
      };
      {
        name = "setup_s";
        value = med (fun r -> r.setup_s);
        unit = "s";
        base = "stack creation, prefill and spawn to first op; " ^ per_rep;
      };
    ]
  in
  Printf.printf "%-30s %16.6g %-9s %d wrong of %d attempted; lin-check %s on %d ops\n"
    "failed_share"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "fraction" failed attempted
    (Format.asprintf "%a" Sec_spec.Lin_check.pp_result lin)
    lin_ops;
  (failed = 0, attempted, failed, metrics)

(* ------------------------------------------------------------------ *)
(* Traced run ([--trace 1]) *)

let write_trace ~dir ~file (w : workload) (runs : Probe.rep list) =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let path = Filename.concat dir file in
  let oc = open_out path in
  let op_clock = match w.substrate with Simulated _ -> "sim_cycles" | Native -> "host_ns" in
  output_string oc "span_id,name,clock,start,end,parent,op_id\n";
  let next = ref 0 in
  let emit name clock start finish parent op =
    let id = !next in
    incr next;
    Printf.fprintf oc "%d,%s,%s,%d,%d,%d,%d\n" id name clock start finish parent op;
    id
  in
  List.iter
    (fun (r : Probe.rep) ->
      let m = r.marks in
      let root = emit "rep" "host_ns" m.(0) m.(3) (-1) (-1) in
      ignore (emit "setup" "host_ns" m.(0) m.(1) root (-1));
      let window = emit "window" "host_ns" m.(1) m.(2) root (-1) in
      let drain = emit "drain" "host_ns" m.(2) m.(3) root (-1) in
      let s = r.spans in
      for k = 0 to (Array.length s / 4) - 1 do
        let kind = s.(4 * k) in
        let parent = if kind = 3 then drain else window in
        ignore
          (emit Probe.span_names.(kind) op_clock s.((4 * k) + 1) s.((4 * k) + 2)
             parent s.((4 * k) + 3))
      done)
    runs;
  close_out oc;
  path

(* Median duration of the spans of [kind], in clock ticks. *)
let span_median (runs : Probe.rep list) kind =
  let durations = Sample.buf 1024 in
  List.iter
    (fun (r : Probe.rep) ->
      let s = r.spans in
      for k = 0 to (Array.length s / 4) - 1 do
        if s.(4 * k) = kind then Sample.add durations (s.((4 * k) + 2) - s.((4 * k) + 1))
      done)
    runs;
  let a = Sample.sorted [ durations ] in
  (Sample.median_sorted a, Array.length a)

let sum_stats (runs : Probe.rep list) =
  List.fold_left
    (fun (a : Sec_core.Sec_stats.t) (r : Probe.rep) ->
      let b = r.batches in
      Sec_core.Sec_stats.
        {
          batches = a.batches + b.batches;
          operations = a.operations + b.operations;
          eliminated = a.eliminated + b.eliminated;
          combined = a.combined + b.combined;
          excluded = a.excluded + b.excluded;
        })
    Sec_core.Sec_stats.empty runs

(* The simulator's counters for the window alone: a run that stops after
   the window minus a run that stops after the set-up (same seed, so the
   set-up is the same schedule). Native workloads replay their shape on
   the simulated machine. *)
type sim_window = {
  sim_ops : int;
  events : int;
  remote_transfers : int;
  invalidations : int;
  host_ns : int;
}

let sim_window (w : workload) entry ~seed =
  let w =
    match w.substrate with
    | Simulated _ -> w
    | Native -> { w with substrate = Simulated Sec_sim.Topology.emerald }
  in
  let stats stop_after =
    match run_entry w entry ~seed ~stop_after () with
    | r, Some s -> (r, s)
    | _, None -> assert false
  in
  let _, setup = stats Probe.Setup in
  let r, full = stats Probe.Window in
  let traffic f = f full.Sec_sim.Sim.traffic - f setup.Sec_sim.Sim.traffic in
  {
    sim_ops = r.Probe.ops;
    events = full.Sec_sim.Sim.events - setup.Sec_sim.Sim.events;
    remote_transfers = traffic (fun t -> t.Sec_sim.Cache_model.remote_transfers);
    invalidations = traffic (fun t -> t.Sec_sim.Cache_model.invalidations);
    host_ns = r.Probe.host_window_ns;
  }

let add_windows a b =
  {
    sim_ops = a.sim_ops + b.sim_ops;
    events = a.events + b.events;
    remote_transfers = a.remote_transfers + b.remote_transfers;
    invalidations = a.invalidations + b.invalidations;
    host_ns = a.host_ns + b.host_ns;
  }

let traced (w : workload) entry ~stack ~seed ~reps ~trace_dir =
  let reps = max 2 (reps / 4) in
  let seeds = List.init reps (fun i -> rep_seed ~seed i) in
  let trace_every = match w.substrate with Simulated _ -> 1 | Native -> 8 in
  let make_native, make_sim =
    if stack = "SEC" then (Native_probe.sec_with_stats, Sim_probe.sec_with_stats)
    else (Native_probe.of_entry entry, Sim_probe.of_entry entry)
  in
  (* Untraced, traced and TRB repetitions alternate, so that a change in
     the host's load between them moves all three alike. *)
  let triples =
    List.map
      (fun s ->
        let untraced = fst (run_entry w entry ~seed:s ()) in
        let traced = fst (run_rep w ~seed:s ~make_native ~make_sim ~trace_every ()) in
        (untraced, traced, fst (run_entry w H.Registry.treiber ~seed:s ())))
      seeds
  in
  let untraced = List.map (fun (u, _, _) -> u) triples in
  let runs = List.map (fun (_, t, _) -> t) triples in
  let trb = List.map (fun (_, _, b) -> b) triples in
  let sw =
    List.fold_left add_windows
      { sim_ops = 0; events = 0; remote_transfers = 0; invalidations = 0; host_ns = 0 }
      (List.map (fun s -> sim_window w entry ~seed:s) seeds)
  in
  let lin, lin_ops = lin_check w entry ~seed in
  let file = Printf.sprintf "%s-seed%d.csv" w.name seed in
  let path = write_trace ~dir:trace_dir ~file w runs in
  let tick = ns_per_tick w.substrate in
  let med f l = Sample.median (List.map f l) in
  let ops = List.fold_left (fun a (r : Probe.rep) -> a + r.ops) 0 runs in
  let failed = List.fold_left (fun a (r : Probe.rep) -> a + r.failed) 0 runs in
  let failed = failed + if lin = Sec_spec.Lin_check.Not_linearizable then 1 else 0 in
  let push_ns, push_n = span_median runs 0 in
  let pop_ns, pop_n, pop_base =
    match span_median runs 1 with
    | _, 0 ->
        let m, n = span_median runs 3 in
        (m, n, "drain pops (the window has none)")
    | m, n -> (m, n, "window pops")
  in
  let st = sum_stats runs in
  let pct part = 100. *. float_of_int part /. float_of_int (max 1 st.operations) in
  let per_sim_op n = float_of_int n /. float_of_int (max 1 sw.sim_ops) in
  let traced_mops = med mops runs and untraced_mops = med mops untraced in
  let kops = float_of_int (max 1 ops) /. 1000. in
  let mix = w.mix in
  let m name value unit base = { name; value; unit; base } in
  let metrics =
    [
      m "prim.relax_ns" (Layers.relax_ns ()) "ns" "per relax unit, Native.relax";
      m "prim.faa_ns" (Layers.faa_ns ()) "ns" "uncontended, padded cell";
      m "prim.cas_ns" (Layers.cas_ns ()) "ns" "uncontended successful CAS, padded cell";
      m "core.push_ns" (push_ns *. tick) "ns"
        (Printf.sprintf "median of %d push spans" push_n);
      m "core.pop_ns" (pop_ns *. tick) "ns"
        (Printf.sprintf "median of %d %s" pop_n pop_base);
      m "core.batching_degree"
        (Sec_core.Sec_stats.batching_degree st)
        "ops/batch"
        (Printf.sprintf "%d batch ops / %d batches" st.operations st.batches);
      m "core.eliminated_pct" (pct st.eliminated) "%"
        (Printf.sprintf "of %d batch ops" st.operations);
      m "core.combined_pct" (pct st.combined) "%"
        (Printf.sprintf "of %d batch ops" st.operations);
      m "core.announce_useful_ratio"
        (float_of_int st.operations
        /. float_of_int (max 1 (st.operations + st.excluded)))
        "ratio"
        (Printf.sprintf "%d batch ops / (%d + %d excluded announcements)"
           st.operations st.operations st.excluded);
      m "reclaim.mag_roundtrip_ns" (Layers.magazine_roundtrip_ns ()) "ns"
        "alloc + recycle, one domain";
      m "reclaim.slab_roundtrip_ns" (Layers.slab_roundtrip_ns ()) "ns"
        "alloc + free, one domain";
      m "gc.minor_words_per_op"
        (List.fold_left (fun a (r : Probe.rep) -> a +. r.minor_words) 0. runs
        /. float_of_int (max 1 ops))
        "words/op"
        (Printf.sprintf "per completed op (%d ops, traced run)" ops);
      m "gc.minor_collections_per_kop"
        (float_of_int
           (List.fold_left (fun a (r : Probe.rep) -> a + r.minor_collections) 0 runs)
        /. kops)
        "count/kop"
        (Printf.sprintf "per 1000 completed ops (%d ops, traced run)" ops);
      m "sim.events_per_op" (per_sim_op sw.events) "events/op"
        (Printf.sprintf "per completed simulated op (%d ops)" sw.sim_ops);
      m "sim.remote_transfers_per_op"
        (per_sim_op sw.remote_transfers)
        "count/op"
        (Printf.sprintf "per completed simulated op (%d ops)" sw.sim_ops);
      m "sim.invalidations_per_op"
        (per_sim_op sw.invalidations)
        "count/op"
        (Printf.sprintf "per completed simulated op (%d ops)" sw.sim_ops);
      m "sim.host_ns_per_event"
        (float_of_int sw.host_ns /. float_of_int (max 1 sw.events))
        "ns/event"
        (Printf.sprintf "host ns / %d simulated window events" sw.events);
      m "harness.loop_ns_per_op"
        (Layers.loop_ns_per_op ~mix ~seed)
        "ns/op" "Runner.drive with no-op closures, one domain";
      m "stacks.trb_mops" (med mops trb) "Mops/s"
        (Printf.sprintf "TRB, same workload, median of %d repetitions" reps);
      m "trace.overhead_pct"
        (100. *. (untraced_mops -. traced_mops) /. untraced_mops)
        "%"
        (Printf.sprintf "untraced %.4g vs traced %.4g Mops/s" untraced_mops
           traced_mops);
    ]
  in
  Printf.printf "trace written to %s\n" path;
  let attempted = ops + lin_ops in
  (failed = 0, attempted, failed, metrics)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and stack = ref "SEC" in
  let trace_dir = ref (Filename.concat ".bench_build" "perfbench") in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME sim-update | sim-push | native-update");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--stack", Arg.Set_string stack, "NAME registry entry or mutant (default SEC)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where the traced run writes its spans");
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let entry =
    match
      List.find_opt
        (fun (e : H.Registry.entry) -> e.H.Registry.name = !stack)
        H.Registry.mutants
    with
    | Some e -> e
    | None -> H.Registry.find !stack
  in
  let reps = reps_for w ~seconds:!seconds in
  provenance w ~seed:!seed ~seconds:!seconds ~trace:!trace ~stack:!stack ~reps;
  let correct, attempted, failed, metrics =
    if !trace = 0 then end_to_end w entry ~seed:!seed ~reps
    else traced w entry ~stack:!stack ~seed:!seed ~reps ~trace_dir:!trace_dir
  in
  print_result ~correct ~attempted ~failed metrics
