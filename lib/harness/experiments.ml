(* The experiment registry: one entry per figure and table of the paper's
   evaluation (see DESIGN.md for the index). Each experiment prints its
   series tables and optionally dumps CSVs.

   Experiments are backend-agnostic: they iterate over the
   {!Runner.BACKEND}s selected by [opts.backend], so the same definition
   produces paper-scale simulated sweeps (this host has a single core)
   and small native-domain sanity sweeps. *)

type backend_choice = [ `Sim | `Native | `Both ]

type opts = {
  scale : float; (* duration multiplier; 1.0 ~ a few seconds per figure *)
  csv_dir : string option;
  backend : backend_choice;
  seed : int;
}

let default_opts = { scale = 1.0; csv_dir = None; backend = `Sim; seed = 1 }

(* Paper figures additionally carry a [plan]: a decomposition into
   [cell]s (one table, or one mix's series) whose jobs are independent
   simulations — one (algorithm × thread-count) point each. The serial
   [run] path executes the same plan in order, so `sec_bench run fig2`
   and a parallel `sec_bench figures --only fig2` produce byte-identical
   CSVs. Ablations/extensions have no plan and only the legacy [run]. *)
type t = {
  id : string;
  title : string;
  run : opts -> unit;
  plan : (opts -> cell list) option;
}

and cell = {
  cell_id : string;  (* "fig2/100%upd"; tables use the bare id *)
  cell_fig : string;  (* experiment id this cell belongs to *)
  cell_topology : string;
  cell_jobs : (unit -> job_result) array;
  cell_render : job_result array -> output;  (* pure *)
}

and job_result =
  | Mops of float * int  (* throughput point, schedule digest *)
  | Degrees of (float * float * float) * int
      (* (batching degree, %elimination, %combining), schedule digest *)

and output =
  | Series of {
      title : string;
      file : string;
      columns : int list;
      rows : (string * float array) list;
    }
  | Keyed of {
      title : string;
      file : string;
      columns : string list;
      rows : (string * string list) list;
    }

let digest_of = function Mops (_, d) -> d | Degrees (_, d) -> d
let mops_of = function Mops (v, _) -> v | Degrees _ -> assert false

(* ------------------------------------------------------------------ *)
(* Sweep helpers                                                        *)

let base_cycles = 300_000

let duration_cycles opts =
  max 10_000 (int_of_float (float_of_int base_cycles *. opts.scale))

let native_duration opts = 0.25 *. opts.scale
let threads_for = Sim_runner.threads_for

(* The backends an experiment should run on, in report order. Simulated
   experiments are topology-specific; the native backend ignores the
   topology (it runs on whatever this host is). *)
let backends_of opts ~topology : (module Runner.BACKEND) list =
  let sim () =
    Sim_runner.backend ~topology ~duration_cycles:(duration_cycles opts)
  in
  let native () = Native_runner.backend ~duration:(native_duration opts) in
  match opts.backend with
  | `Sim -> [ sim () ]
  | `Native -> [ native () ]
  | `Both -> [ sim (); native () ]

(* One throughput sweep (a figure's worth of lines) on one backend. *)
let sweep opts (module B : Runner.BACKEND) ?threads ~mix ~entries ~tag ~title
    () =
  let threads = Option.value threads ~default:B.sweep_threads in
  let prefill = B.prefill_for mix in
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let values =
          List.map
            (fun n ->
              (B.run_mix e.Registry.maker ~threads:n ~mix ~prefill
                 ~seed:opts.seed ())
                .Measurement.mops)
            threads
        in
        (e.Registry.name, Array.of_list values))
      entries
  in
  Report.series
    ~title:(Printf.sprintf "%s [%s, %s]" title mix.Workload.label B.label)
    ~columns:threads ~rows;
  Option.iter
    (fun dir ->
      Report.csv_of_series ~dir
        ~file:
          (Printf.sprintf "%s_%s%s.csv" tag mix.Workload.label B.file_suffix)
        ~columns:threads ~rows)
    opts.csv_dir

(* ------------------------------------------------------------------ *)
(* Figure cells: the job-level decomposition behind [plan]               *)

(* One mix's series on one simulated topology: jobs in (entry, thread)
   row-major order — exactly the order the serial sweep ran them in. *)
let series_cell opts ~topology ~entries ~tag ~title mix =
  let threads = threads_for topology in
  let nt = List.length threads in
  let duration = duration_cycles opts in
  let prefill = Sim_runner.prefill_for mix in
  let seed = opts.seed in
  let jobs =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.map
          (fun n () ->
            let m, stats =
              Sim_runner.run_with_stats e.Registry.maker ~topology ~threads:n
                ~duration_cycles:duration ~mix ~prefill ~seed ()
            in
            Mops (m.Measurement.mops, stats.Sec_sim.Sim.schedule_digest))
          threads)
      entries
  in
  let names = List.map (fun e -> e.Registry.name) entries in
  let render results =
    let rows =
      List.mapi
        (fun i name ->
          (name, Array.init nt (fun j -> mops_of results.((i * nt) + j))))
        names
    in
    Series
      {
        title =
          Printf.sprintf "%s [%s, simulated %s]" title mix.Workload.label
            topology.Sec_sim.Topology.name;
        file = Printf.sprintf "%s_%s.csv" tag mix.Workload.label;
        columns = threads;
        rows;
      }
  in
  {
    cell_id = tag ^ "/" ^ mix.Workload.label;
    cell_fig = tag;
    cell_topology = topology.Sec_sim.Topology.name;
    cell_jobs = Array.of_list jobs;
    cell_render = render;
  }

(* Batching/elimination/combining degrees (Tables 1/2/3): jobs in
   (mix, thread) row-major order; the render averages each mix's column
   over its thread points, the same fold order as the serial path. *)
let degrees_cell opts ~topology ~id ~paper_ref =
  let thread_points = List.filter (fun n -> n >= 8) (threads_for topology) in
  let np = List.length thread_points in
  let mixes = [ Workload.update_heavy; Workload.mixed; Workload.read_heavy ] in
  let duration = duration_cycles opts in
  let seed = opts.seed in
  let jobs =
    List.concat_map
      (fun mix ->
        List.map
          (fun n () ->
            let s, sim_stats =
              Sim_runner.run_sec_stats_with ~config:Sec_core.Config.default
                ~topology ~threads:n ~duration_cycles:duration ~mix ~seed ()
            in
            Degrees
              ( ( Sec_core.Sec_stats.batching_degree s,
                  Sec_core.Sec_stats.pct_eliminated s,
                  Sec_core.Sec_stats.pct_combined s ),
                sim_stats.Sec_sim.Sim.schedule_digest ))
          thread_points)
      mixes
  in
  let render results =
    let per_mix =
      List.mapi
        (fun i _mix ->
          let avg f =
            let sum = ref 0. in
            for j = 0 to np - 1 do
              (match results.((i * np) + j) with
              | Degrees (d, _) -> sum := !sum +. f d
              | Mops _ -> assert false)
            done;
            !sum /. float_of_int np
          in
          ( avg (fun (d, _, _) -> d),
            avg (fun (_, e, _) -> e),
            avg (fun (_, _, c) -> c) ))
        mixes
    in
    let columns = List.map (fun m -> m.Workload.label) mixes in
    let row f = List.map (fun v -> Printf.sprintf "%.1f" (f v)) per_mix in
    let rows =
      [
        ("Batching Degree", row (fun (d, _, _) -> d));
        ("%Elimination", row (fun (_, e, _) -> e));
        ("%Combining", row (fun (_, _, c) -> c));
      ]
    in
    Keyed
      {
        title =
          Printf.sprintf "%s [simulated %s, averaged over %s threads]"
            paper_ref topology.Sec_sim.Topology.name
            (String.concat "," (List.map string_of_int thread_points));
        file = id ^ ".csv";
        columns;
        rows;
      }
  in
  {
    cell_id = id;
    cell_fig = id;
    cell_topology = topology.Sec_sim.Topology.name;
    cell_jobs = Array.of_list jobs;
    cell_render = render;
  }

let render_output opts = function
  | Series { title; file; columns; rows } ->
      Report.series ~title ~columns ~rows;
      Option.iter
        (fun dir -> Report.csv_of_series ~dir ~file ~columns ~rows)
        opts.csv_dir
  | Keyed { title; file; columns; rows } ->
      Report.keyed ~title ~columns ~rows;
      Option.iter
        (fun dir ->
          Report.csv ~dir ~file
            ~header:("metric" :: columns)
            ~rows:(List.map (fun (name, vs) -> name :: vs) rows))
        opts.csv_dir

(* Serial plan execution: jobs in order, one cell at a time. *)
let run_cells opts cells =
  List.iter
    (fun c ->
      let results = Array.map (fun job -> job ()) c.cell_jobs in
      render_output opts (c.cell_render results))
    cells

(* Throughput figures: update mixes (Figures 2/5/9). *)
let throughput_figure ~id ~topology ~paper_ref =
  let mixes = [ Workload.update_heavy; Workload.mixed; Workload.read_heavy ] in
  let plan opts =
    List.map
      (series_cell opts ~topology ~entries:Registry.paper_set ~tag:id
         ~title:paper_ref)
      mixes
  in
  {
    id;
    title =
      Printf.sprintf "%s: throughput, 100%%/50%%/10%% updates on %s" paper_ref
        topology.Sec_sim.Topology.name;
    run =
      (fun opts ->
        (match opts.backend with
        | `Sim | `Both -> run_cells opts (plan opts)
        | `Native -> ());
        match opts.backend with
        | `Native | `Both ->
            let backend =
              Native_runner.backend ~duration:(native_duration opts)
            in
            List.iter
              (fun mix ->
                sweep opts backend ~mix ~entries:Registry.paper_set ~tag:id
                  ~title:paper_ref ())
              mixes
        | `Sim -> ());
    plan = Some plan;
  }

(* Push-only / pop-only figures (Figures 3/6/10). *)
let homogeneous_figure ~id ~topology ~paper_ref =
  let mixes = [ Workload.push_only; Workload.pop_only ] in
  let plan opts =
    List.map
      (series_cell opts ~topology ~entries:Registry.paper_set ~tag:id
         ~title:paper_ref)
      mixes
  in
  {
    id;
    title =
      Printf.sprintf "%s: push-only and pop-only on %s" paper_ref
        topology.Sec_sim.Topology.name;
    run =
      (fun opts ->
        (match opts.backend with
        | `Sim | `Both -> run_cells opts (plan opts)
        | `Native -> ());
        match opts.backend with
        | `Native | `Both ->
            let backend =
              Native_runner.backend ~duration:(native_duration opts)
            in
            List.iter
              (fun mix ->
                sweep opts backend ~mix ~entries:Registry.paper_set ~tag:id
                  ~title:paper_ref ())
              mixes
        | `Sim -> ());
    plan = Some plan;
  }

(* Aggregator self-comparison (Figures 4/7/8/11/12). Simulator-only. *)
let aggregator_figure ~id ~topology ~paper_ref ~mixes =
  let plan opts =
    List.map
      (series_cell opts ~topology ~entries:Registry.sec_aggregator_sweep
         ~tag:id ~title:paper_ref)
      mixes
  in
  {
    id;
    title =
      Printf.sprintf "%s: SEC with 1..5 aggregators on %s" paper_ref
        topology.Sec_sim.Topology.name;
    run = (fun opts -> run_cells opts (plan opts));
    plan = Some plan;
  }

(* Batching/elimination/combining degrees (Tables 1/2/3). Simulator-only:
   the cell reads SEC's internal statistics counters. *)
let degrees_table ~id ~topology ~paper_ref =
  let plan opts = [ degrees_cell opts ~topology ~id ~paper_ref ] in
  {
    id;
    title =
      Printf.sprintf "%s: SEC batching/elimination/combining on %s" paper_ref
        topology.Sec_sim.Topology.name;
    run = (fun opts -> run_cells opts (plan opts));
    plan = Some plan;
  }

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                   *)

let ablation_backoff =
  {
    id = "ablation-backoff";
    title =
      "Ablation: SEC freezer wait budget (0 / 512 / 1024 / 2048 / 8192 relax \
       units)";
    run =
      (fun opts ->
        let entries =
          List.map
            (fun b ->
              Registry.sec_with ~freeze_backoff:b ~aggregators:2
                ~label:(Printf.sprintf "SEC_bo%d" b) ())
            [ 0; 512; 1024; 2048; 8192 ]
        in
        List.iter
          (fun mix ->
            sweep opts
              (Sim_runner.backend ~topology:Sec_sim.Topology.emerald
                 ~duration_cycles:(duration_cycles opts))
              ~mix ~entries ~tag:"ablation_backoff"
              ~title:"Freezer backoff ablation" ())
          [ Workload.update_heavy; Workload.push_only ]);
    plan = None;
  }

let ablation_funnel =
  let module SP = Sec_sim.Sim.Prim in
  let module R = Runner.Make (SP) in
  (* Not a stack benchmark, but the same driver fits: a push-only "stack"
     whose push is one fetch&add. The loop's extra random draws are
     schedule-free in the simulator, so the numbers match the dedicated
     loop this replaces. Runs without jitter: FAA throughput has no
     lockstep fixed points to break. *)
  let faa_throughput opts ~threads ~variant =
    let duration = duration_cycles opts in
    let ops, _ =
      Sec_sim.Sim.run ~seed:opts.seed ~topology:Sec_sim.Topology.emerald
        (fun () ->
          let module Faa = Sec_funnel.Agg_faa.Make (SP) in
          let shards = match variant with `Funnel s -> s | `Central -> 1 in
          let funnel = Faa.create ~shards () in
          let central = SP.Atomic.make 0 in
          let outcome =
            R.drive ~threads ~stop:(R.Timed duration) ~mix:Workload.push_only
              ~push:(fun ~tid _ ->
                match variant with
                | `Central -> ignore (SP.Atomic.fetch_and_add central 1)
                | `Funnel _ -> ignore (Faa.fetch_and_add funnel ~tid 1))
              ~pop:(fun ~tid:_ -> None)
              ~peek:(fun ~tid:_ -> None)
              ()
          in
          R.total outcome)
    in
    (Measurement.of_simulated ~algorithm:"faa" ~threads ~ops ~cycles:duration)
      .Measurement.mops
  in
  {
    id = "ablation-funnel";
    title = "Ablation: sharded (aggregating-funnel style) vs central fetch&add";
    run =
      (fun opts ->
        let threads = threads_for Sec_sim.Topology.emerald in
        let variants =
          [
            ("central FAA", `Central);
            ("funnel x2", `Funnel 2);
            ("funnel x4", `Funnel 4);
          ]
        in
        let rows =
          List.map
            (fun (name, v) ->
              ( name,
                Array.of_list
                  (List.map
                     (fun n -> faa_throughput opts ~threads:n ~variant:v)
                     threads) ))
            variants
        in
        Report.series
          ~title:"Fetch&add throughput (Mops/s) [simulated emerald]"
          ~columns:threads ~rows;
        Option.iter
          (fun dir ->
            Report.csv_of_series ~dir ~file:"ablation_funnel.csv"
              ~columns:threads ~rows)
          opts.csv_dir);
    plan = None;
  }

let ablation_hsynch =
  {
    id = "ablation-hsynch";
    title =
      "Ablation: SEC vs hierarchical combining (H-Synch) vs flat CC-Synch";
    run =
      (fun opts ->
        let entries = [ Registry.sec; Registry.hsynch; Registry.cc ] in
        List.iter
          (fun mix ->
            sweep opts
              (Sim_runner.backend ~topology:Sec_sim.Topology.sapphire
                 ~duration_cycles:(duration_cycles opts))
              ~mix ~entries ~tag:"ablation_hsynch"
              ~title:"NUMA-aware combining ablation" ())
          [ Workload.update_heavy ]);
    plan = None;
  }

let extension_pool =
  {
    id = "extension-pool";
    title =
      "Extension: SEC-style pool (sharded backing stores) vs SEC stack vs TRB";
    run =
      (fun opts ->
        let (module B : Runner.BACKEND) =
          Sim_runner.backend ~topology:Sec_sim.Topology.emerald
            ~duration_cycles:(duration_cycles opts)
        in
        let entries =
          [
            Registry.pool_with ~aggregators:2 ~label:"SEC-pool x2";
            Registry.pool_with ~aggregators:4 ~label:"SEC-pool x4";
            Registry.sec;
            Registry.treiber;
          ]
        in
        let rows =
          List.map
            (fun (e : Registry.entry) ->
              ( e.Registry.name,
                Array.of_list
                  (List.map
                     (fun n ->
                       (B.run_mix e.Registry.maker ~threads:n
                          ~mix:Workload.update_heavy ~seed:opts.seed ())
                         .Measurement.mops)
                     B.sweep_threads) ))
            entries
        in
        Report.series
          ~title:"Pool extension, 100% updates (Mops/s) [simulated emerald]"
          ~columns:B.sweep_threads ~rows;
        Option.iter
          (fun dir ->
            Report.csv_of_series ~dir ~file:"extension_pool.csv"
              ~columns:B.sweep_threads ~rows)
          opts.csv_dir);
    plan = None;
  }

let variance_check =
  {
    id = "variance";
    title =
      "Supporting: seed-to-seed spread at 28 threads (paper: <5% over 5 runs)";
    run =
      (fun opts ->
        let seeds = List.init 5 (fun i -> opts.seed + i) in
        let rows =
          List.map
            (fun (e : Registry.entry) ->
              let v =
                Variance.of_sim_runs e ~topology:Sec_sim.Topology.emerald
                  ~threads:28 ~duration_cycles:(duration_cycles opts)
                  ~mix:Workload.update_heavy ~seeds
              in
              ( e.Registry.name,
                [
                  Printf.sprintf "%.2f" v.Variance.mean;
                  Printf.sprintf "%.2f" v.Variance.min;
                  Printf.sprintf "%.2f" v.Variance.max;
                  Printf.sprintf "%.1f%%" v.Variance.relative_spread;
                ] ))
            Registry.paper_set
        in
        Report.keyed
          ~title:
            "Throughput over 5 seeds [100%upd, 28 threads, simulated emerald]"
          ~columns:[ "mean"; "min"; "max"; "spread" ]
          ~rows;
        Option.iter
          (fun dir ->
            Report.csv ~dir ~file:"variance.csv"
              ~header:[ "algorithm"; "mean"; "min"; "max"; "spread" ]
              ~rows:(List.map (fun (n, vs) -> n :: vs) rows))
          opts.csv_dir);
    plan = None;
  }

let latency_distribution =
  {
    id = "latency-dist";
    title =
      "Supporting: per-operation latency distribution at 28 threads (emerald)";
    run =
      (fun opts ->
        List.iter
          (fun (module B : Runner.BACKEND) ->
            let threads = B.latency_point in
            let rows =
              List.map
                (fun (e : Registry.entry) ->
                  let h =
                    B.run_latency e.Registry.maker ~threads
                      ~mix:Workload.update_heavy ~seed:opts.seed ()
                  in
                  ( e.Registry.name,
                    [
                      Printf.sprintf "%.0f" (Latency.mean h);
                      string_of_int (Latency.percentile h 50.);
                      string_of_int (Latency.percentile h 90.);
                      string_of_int (Latency.percentile h 99.);
                      string_of_int (Latency.percentile h 99.9);
                    ] ))
                Registry.paper_set
            in
            Report.keyed
              ~title:
                (Printf.sprintf "Per-op latency in %s [100%%upd, %d threads, %s]"
                   B.latency_unit threads B.label)
              ~columns:[ "mean"; "p50"; "p90"; "p99"; "p99.9" ]
              ~rows;
            Option.iter
              (fun dir ->
                Report.csv ~dir
                  ~file:(Printf.sprintf "latency_dist%s.csv" B.file_suffix)
                  ~header:[ "algorithm"; "mean"; "p50"; "p90"; "p99"; "p99.9" ]
                  ~rows:(List.map (fun (n, vs) -> n :: vs) rows))
              opts.csv_dir)
          (backends_of opts ~topology:Sec_sim.Topology.emerald));
    plan = None;
  }

(* A deliberately tiny, fixed-size simulated run for the @bench-smoke
   golden-file check: topology, duration, threads and mix are pinned
   (scale and backend options are ignored) so that for a fixed --seed the
   CSV is reproducible byte for byte. *)
let smoke =
  {
    id = "smoke";
    title = "Smoke: SEC vs TRB, tiny pinned simulated run (golden-diffed)";
    run =
      (fun opts ->
        let (module B : Runner.BACKEND) =
          Sim_runner.backend ~topology:Sec_sim.Topology.testbox
            ~duration_cycles:10_000
        in
        let threads = [ 1; 2; 4 ] in
        let mix = Workload.update_heavy in
        let rows =
          List.map
            (fun (e : Registry.entry) ->
              ( e.Registry.name,
                Array.of_list
                  (List.map
                     (fun n ->
                       (B.run_mix e.Registry.maker ~threads:n ~mix
                          ~seed:opts.seed ())
                         .Measurement.mops)
                     threads) ))
            [ Registry.sec; Registry.treiber ]
        in
        Report.series
          ~title:(Printf.sprintf "Smoke [%s, %s]" mix.Workload.label B.label)
          ~columns:threads ~rows;
        Option.iter
          (fun dir ->
            Report.csv_of_series ~dir ~file:"smoke.csv" ~columns:threads ~rows)
          opts.csv_dir);
    plan = None;
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

let all =
  [
    throughput_figure ~id:"fig2" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Figure 2";
    homogeneous_figure ~id:"fig3" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Figure 3";
    aggregator_figure ~id:"fig4" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Figure 4"
      ~mixes:
        [
          Workload.update_heavy;
          Workload.mixed;
          Workload.read_heavy;
          Workload.push_only;
        ];
    degrees_table ~id:"table1" ~topology:Sec_sim.Topology.emerald
      ~paper_ref:"Table 1";
    throughput_figure ~id:"fig5" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 5";
    homogeneous_figure ~id:"fig6" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 6";
    aggregator_figure ~id:"fig7" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 7"
      ~mixes:[ Workload.update_heavy; Workload.mixed; Workload.read_heavy ];
    aggregator_figure ~id:"fig8" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Figure 8" ~mixes:[ Workload.push_only; Workload.pop_only ];
    degrees_table ~id:"table2" ~topology:Sec_sim.Topology.icelake
      ~paper_ref:"Table 2";
    throughput_figure ~id:"fig9" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 9";
    homogeneous_figure ~id:"fig10" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 10";
    aggregator_figure ~id:"fig11" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 11"
      ~mixes:
        [
          Workload.update_heavy;
          Workload.mixed;
          Workload.read_heavy;
          Workload.push_only;
        ];
    aggregator_figure ~id:"fig12" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Figure 12" ~mixes:[ Workload.push_only; Workload.pop_only ];
    degrees_table ~id:"table3" ~topology:Sec_sim.Topology.sapphire
      ~paper_ref:"Table 3";
    ablation_backoff;
    ablation_funnel;
    ablation_hsynch;
    extension_pool;
    latency_distribution;
    variance_check;
    smoke;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

(* Shared driver plumbing for bin/sec_bench and bench/main. *)
let run_one opts e =
  Printf.printf "== %s: %s ==\n%!" e.id e.title;
  e.run opts

let run_all opts =
  List.iter
    (fun e ->
      print_newline ();
      run_one opts e)
    all

(* ------------------------------------------------------------------ *)
(* One-command figure set: `sec_bench figures`                          *)

let figure_ids () =
  List.filter_map (fun e -> if Option.is_some e.plan then Some e.id else None) all

(* EXPERIMENTS.md's recorded curve shapes, re-checked by every figures
   run. [Best]/[Worst] name the expected winner/weakest line at the top
   thread count ("*" applies to every mix of the figure); the tables'
   claim is that elimination dominates combining. These encode what the
   reproduction *measured* (including its recorded deviations from the
   paper, e.g. TSI overtaking SEC at 100% updates on icelake/sapphire),
   so a DEVIATION in REPORT.md means the code drifted from
   EXPERIMENTS.md, not from the paper. *)
type claim = Best of string | Worst of string | Elim_dominates

let claims =
  [
    ("fig2", "100%upd", Best "SEC");
    ("fig2", "50%upd", Best "SEC");
    ("fig2", "10%upd", Best "SEC");
    ("fig3", "push-only", Best "TSI");
    ("fig3", "pop-only", Best "SEC");
    ("fig4", "*", Worst "SEC_Agg1");
    ("table1", "*", Elim_dominates);
    ("fig5", "100%upd", Best "TSI");
    ("fig5", "50%upd", Best "SEC");
    ("fig5", "10%upd", Best "SEC");
    ("fig6", "push-only", Best "TSI");
    ("fig6", "pop-only", Best "SEC");
    ("fig7", "*", Worst "SEC_Agg1");
    ("fig8", "*", Worst "SEC_Agg1");
    ("table2", "*", Elim_dominates);
    ("fig9", "100%upd", Best "TSI");
    ("fig9", "50%upd", Best "SEC");
    ("fig9", "10%upd", Best "SEC");
    ("fig10", "push-only", Best "TSI");
    ("fig10", "pop-only", Best "SEC");
    ("fig11", "*", Worst "SEC_Agg1");
    ("fig12", "*", Worst "SEC_Agg1");
    ("table3", "*", Elim_dominates);
  ]

let claim_for ~fig ~label =
  List.find_map
    (fun (f, l, c) -> if f = fig && (l = label || l = "*") then Some c else None)
    claims

(* One REPORT.md section per cell: who wins by what factor at the top
   thread count, checked against the recorded claim. Returns the lines
   and whether the cell matched. *)
let report_section c out =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let matched =
    match out with
    | Series { columns; rows; title; _ } ->
        line "## %s (%s)" c.cell_id c.cell_topology;
        line "";
        line "%s" title;
        line "";
        let top = List.nth columns (List.length columns - 1) in
        let at_top (_, vs) = vs.(Array.length vs - 1) in
        let ranked =
          List.sort (fun x y -> compare (at_top y) (at_top x)) rows
        in
        let name_of = fst in
        let winner = List.hd ranked in
        let weakest = List.nth ranked (List.length ranked - 1) in
        let factor a b = if b > 0. then a /. b else Float.infinity in
        (match ranked with
        | w :: ru :: _ ->
            line
              "- At %d threads: **%s** leads with %.2f Mops/s; runner-up %s \
               at %.2f (%.2fx behind); weakest %s at %.2f."
              top (name_of w) (at_top w) (name_of ru) (at_top ru)
              (factor (at_top w) (at_top ru))
              (name_of weakest) (at_top weakest)
        | _ -> ());
        let label =
          match String.index_opt c.cell_id '/' with
          | Some i ->
              String.sub c.cell_id (i + 1) (String.length c.cell_id - i - 1)
          | None -> "*"
        in
        (match claim_for ~fig:c.cell_fig ~label with
        | Some (Best expect) ->
            let ok = name_of winner = expect in
            line
              "- EXPERIMENTS.md records **%s** as the winner here — %s."
              expect
              (if ok then "**MATCH**"
               else
                 Printf.sprintf "**DEVIATION** (%s leads)" (name_of winner));
            Some ok
        | Some (Worst expect) ->
            let ok = name_of weakest = expect in
            line
              "- EXPERIMENTS.md records **%s** as the weakest line here — %s."
              expect
              (if ok then "**MATCH**"
               else
                 Printf.sprintf "**DEVIATION** (%s is weakest)"
                   (name_of weakest));
            Some ok
        | Some Elim_dominates | None -> None)
    | Keyed { rows; title; _ } ->
        line "## %s (%s)" c.cell_id c.cell_topology;
        line "";
        line "%s" title;
        line "";
        let avg name =
          match List.assoc_opt name rows with
          | Some vs ->
              let fs = List.filter_map float_of_string_opt vs in
              if fs = [] then None
              else
                Some (List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs))
          | None -> None
        in
        (match (avg "%Elimination", avg "%Combining") with
        | Some e, Some cmb ->
            let ok = e > cmb in
            line
              "- Elimination %.1f%% vs combining %.1f%% (averaged over \
               mixes) — EXPERIMENTS.md records elimination dominating — %s."
              e cmb
              (if ok then "**MATCH**" else "**DEVIATION**");
            Some ok
        | _ -> None)
  in
  line "";
  (Buffer.contents b, matched)

let write_report ~path opts rendered elapsed =
  let sections = List.map (fun (c, out) -> report_section c out) rendered in
  let matches =
    List.filter_map (fun (_, m) -> m) sections |> List.filter (fun m -> m)
  in
  let checked = List.filter_map (fun (_, m) -> m) sections in
  let header =
    [
      "# Figure reproduction report";
      "";
      Printf.sprintf
        "Generated by `sec_bench figures` (seed %d, scale %g): %d cells, \
         %.1fs wall clock."
        opts.seed opts.scale (List.length rendered) elapsed;
      Printf.sprintf
        "Curve shapes checked against EXPERIMENTS.md's recorded claims: \
         **%d/%d match**. A deviation means the code drifted from the \
         recorded reproduction, not necessarily from the paper."
        (List.length matches) (List.length checked);
      "";
    ]
  in
  Report.markdown ~path
    ~lines:(header @ List.map (fun (s, _) -> s) sections)

(* The parallel path: flatten every selected cell's jobs into one array,
   fan them out over {!Sweep.map}, then render cells in canonical order.
   Jobs are pure (each owns a fresh simulated machine), so the output —
   stdout tables, CSVs, report, digests — is bit-identical for every
   [jobs] value, including the serial [jobs = 1] fallback. *)
let run_figures opts ~jobs ?topology ?(only = []) ?report_path ?digest_path ()
    =
  let plans =
    List.filter_map (fun e -> Option.map (fun p -> p opts) e.plan) all
  in
  let cells = List.concat plans in
  List.iter
    (fun o ->
      if
        not
          (List.exists (fun c -> o = c.cell_fig || o = c.cell_id) cells)
      then
        invalid_arg
          (Printf.sprintf
             "figures: unknown --only filter %S (try e.g. fig2 or \
              \"fig2/100%%upd\")"
             o))
    only;
  let cells =
    List.filter
      (fun c ->
        (match topology with Some t -> c.cell_topology = t | None -> true)
        && match only with
           | [] -> true
           | l -> List.exists (fun o -> o = c.cell_fig || o = c.cell_id) l)
      cells
  in
  if cells = [] then invalid_arg "figures: no cells selected";
  let jobs = Sweep.clamp_jobs jobs in
  let total_jobs =
    List.fold_left (fun n c -> n + Array.length c.cell_jobs) 0 cells
  in
  Printf.printf "figures: %d cells, %d simulation jobs, %d domain%s\n%!"
    (List.length cells) total_jobs jobs
    (if jobs = 1 then "" else "s");
  let thunks = Array.concat (List.map (fun c -> c.cell_jobs) cells) in
  let t0 = Unix.gettimeofday () in
  let results = Sweep.map ~jobs (fun job -> job ()) thunks in
  let elapsed = Unix.gettimeofday () -. t0 in
  let rendered =
    let off = ref 0 in
    List.map
      (fun c ->
        let n = Array.length c.cell_jobs in
        let slice = Array.sub results !off n in
        off := !off + n;
        (c, slice))
      cells
  in
  let outputs = List.map (fun (c, rs) -> (c, rs, c.cell_render rs)) rendered in
  List.iter (fun (_, _, out) -> render_output opts out) outputs;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc "cell,job,digest\n";
      List.iter
        (fun (c, rs, _) ->
          Array.iteri
            (fun j r -> Printf.fprintf oc "%s,%d,%d\n" c.cell_id j (digest_of r))
            rs)
        outputs;
      close_out oc;
      Printf.printf "  [digests] wrote %s\n%!" path)
    digest_path;
  Option.iter
    (fun path ->
      write_report ~path opts (List.map (fun (c, _, out) -> (c, out)) outputs)
        elapsed)
    report_path;
  Printf.printf "figures: done in %.1fs (%d jobs on %d domain%s)\n%!" elapsed
    total_jobs jobs
    (if jobs = 1 then "" else "s")
