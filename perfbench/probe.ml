(* One measured repetition of a closed-loop workload on either substrate:
   create and prefill a stack, drive it through [Runner.Make(X).drive],
   drain it, and check every value that came out.

   The benchmark wraps the stack's [push]/[pop]/[peek] in the closures
   it hands to [drive], so the library runs unchanged. Each wrapper
   stamps the call on the substrate's clock ([Clock.now]: monotonic
   nanoseconds natively, virtual cycles in the simulator, where reading
   the clock costs no virtual time), logs what a pop returned, and
   optionally records a span. Pushes ignore the value [drive] drew and
   push [encode ~producer:tid ~seq] instead, so every pushed value is
   unique and the draw sequence is unchanged. *)

(* Host wall clock, in nanoseconds; also read inside the simulator, where
   it times the host's work rather than the simulated machine. *)
let host_ns () = Int64.to_int (Monotonic_clock.now ())

(* Pushed values: the producer (a worker tid, or [threads] for the
   prefill) in the low byte, its sequence number above. *)
let encode ~producer ~seq = (seq lsl 8) lor producer
let producer_of v = v land 255
let seq_of v = v lsr 8
let max_threads = 254

(* Span kinds, as written to the trace. *)
let span_names = [| "core.push"; "core.pop"; "core.peek"; "core.drain_pop" |]

type stack = {
  push : tid:int -> int -> unit;
  pop : tid:int -> int option;
  peek : tid:int -> int option;
  batches : unit -> Sec_core.Sec_stats.t;
}

type rep = {
  ops : int;  (** operations completed in the window *)
  window_s : float;  (** measured window, seconds (simulated at 3 GHz) *)
  setup_s : float;  (** host time from set-up start to the first op *)
  host_window_ns : int;  (** host time from the first op to the window's end *)
  latency : int array;  (** sorted per-op latencies, in clock ticks *)
  alloc_words : float;  (** heap words allocated in the window *)
  minor_words : float;
  minor_collections : int;
  failed : int;  (** wrong results: phantom, duplicate or lost values *)
  batches : Sec_core.Sec_stats.t;  (** batch statistics of the window *)
  spans : int array;
      (** [kind; start; finish; op id] per recorded span, in ticks *)
  marks : int array;
      (** host stamps: set-up start, first op, window end, drain end *)
}

type stop_after = Setup | Window | Drain

(* Per-worker log, written only by its worker and read after the join.
   Padded so that two workers' counters never share a cache line. *)
type lane = {
  mutable pushes : int;
  mutable ops : int;
  mutable first_op : int;
  popped : Sample.buf;
  latency : Sample.buf;
  spans : Sample.buf;
}

let lane capacity =
  Sec_prim.Padding.copy_as_padded
    {
      pushes = 0;
      ops = 0;
      first_op = 0;
      popped = Sample.buf capacity;
      latency = Sample.buf capacity;
      spans = Sample.buf 16;
    }

let grown_words lanes =
  Array.fold_left
    (fun acc l ->
      acc + l.popped.Sample.grown_words + l.latency.Sample.grown_words
      + l.spans.Sample.grown_words)
    0 lanes

(* Count every wrong result: a returned value never pushed or returned
   twice, and a pushed value neither popped nor drained. *)
let count_failures ~threads ~prefill lanes drained =
  let pushed p = if p = threads then prefill else lanes.(p).pushes in
  let seen = Array.init (threads + 1) (fun p -> Bytes.make (pushed p) '\000') in
  let failed = ref 0 and taken = ref 0 in
  let take v =
    let p = producer_of v and q = seq_of v in
    if v < 0 || p > threads || q >= pushed p then incr failed
    else if Bytes.get seen.(p) q <> '\000' then incr failed
    else begin
      Bytes.set seen.(p) q '\001';
      incr taken
    end
  in
  Array.iter (fun l -> Sample.iter take l.popped) lanes;
  List.iter take drained;
  let total = ref 0 in
  for p = 0 to threads do
    total := !total + pushed p
  done;
  !failed + (!total - !taken)

module Make
    (X : Sec_prim.Prim_intf.EXEC)
    (Clock : sig
      val now : unit -> int
    end) =
struct
  module R = Sec_harness.Runner.Make (X)

  let of_entry (entry : Sec_harness.Registry.entry) ~threads () =
    let module M = (val entry.Sec_harness.Registry.maker) in
    let module S = M (X) in
    let s = S.create ~max_threads:threads () in
    {
      push = (fun ~tid v -> S.push s ~tid v);
      pop = (fun ~tid -> S.pop s ~tid);
      peek = (fun ~tid -> S.peek s ~tid);
      batches = (fun () -> Sec_core.Sec_stats.empty);
    }

  (* [Registry.sec]'s configuration with batch statistics switched on:
     the traced run's source of the core layer's counters. *)
  let sec_with_stats ~threads () =
    let module S = Sec_core.Sec_stack.Make (X) in
    let config = Sec_core.Config.(with_stats default) in
    let s = S.create_with ~config ~max_threads:threads () in
    {
      push = (fun ~tid v -> S.push s ~tid v);
      pop = (fun ~tid -> S.pop s ~tid);
      peek = (fun ~tid -> S.peek s ~tid);
      batches = (fun () -> S.stats s);
    }

  (* Run one repetition in the current substrate context (inside
     [Sim.run], or inside [Native.with_exec]). [trace_every] > 0 records
     every [trace_every]-th operation of each worker as a span.
     [stop_after] ends the repetition early so the simulator's counters
     can be taken for the set-up and the window alone. *)
  let rep ~make ~threads ~mix ~budget ~seconds_of ~op_overhead ~prefill
      ?(trace_every = 0) ?(capacity = 1 lsl 16) ?(stop_after = Drain) () =
    if threads > max_threads then invalid_arg "Probe.rep: too many threads";
    (* The logs are the benchmark's own; they are made before set-up is
       timed. *)
    let lanes = Array.init threads (fun _ -> lane capacity) in
    let start = host_ns () in
    let s = make () in
    for seq = 0 to prefill - 1 do
      s.push ~tid:0 (encode ~producer:threads ~seq)
    done;
    let span ~tid l kind t0 t1 =
      let seq = l.ops in
      l.ops <- seq + 1;
      if trace_every > 0 && seq mod trace_every = 0 then begin
        Sample.add l.spans kind;
        Sample.add l.spans t0;
        Sample.add l.spans t1;
        Sample.add l.spans (encode ~producer:tid ~seq)
      end
    in
    let enter l = if l.first_op = 0 then l.first_op <- host_ns () in
    let push ~tid _drawn =
      let l = lanes.(tid) in
      enter l;
      let v = encode ~producer:tid ~seq:l.pushes in
      l.pushes <- l.pushes + 1;
      let t0 = Clock.now () in
      s.push ~tid v;
      let t1 = Clock.now () in
      Sample.add l.latency (t1 - t0);
      span ~tid l 0 t0 t1
    in
    let pop ~tid =
      let l = lanes.(tid) in
      enter l;
      let t0 = Clock.now () in
      let r = s.pop ~tid in
      let t1 = Clock.now () in
      (match r with Some v -> Sample.add l.popped v | None -> ());
      Sample.add l.latency (t1 - t0);
      span ~tid l 1 t0 t1;
      r
    in
    let peek ~tid =
      let l = lanes.(tid) in
      enter l;
      let t0 = Clock.now () in
      let r = s.peek ~tid in
      let t1 = Clock.now () in
      Sample.add l.latency (t1 - t0);
      span ~tid l 2 t0 t1;
      r
    in
    let before = s.batches () in
    let gc0 = Gc.quick_stat () in
    let outcome =
      if stop_after = Setup then None
      else
        Some
          (R.drive ~op_overhead ~threads ~stop:(R.Timed budget) ~mix ~push ~pop
             ~peek ())
    in
    let gc1 = Gc.quick_stat () in
    let finish = host_ns () in
    let batches = Sec_core.Sec_stats.diff (s.batches ()) before in
    (* Drain single-threaded; drained pops are spans of their own kind,
       so a push-only window still times the pop path. *)
    let drain_spans = Sample.buf 16 in
    let rec drain acc i =
      let t0 = Clock.now () in
      match s.pop ~tid:0 with
      | Some v ->
          let t1 = Clock.now () in
          if trace_every > 0 && i mod trace_every = 0 then
            List.iter (Sample.add drain_spans) [ 3; t0; t1; i ];
          drain (v :: acc) (i + 1)
      | None -> acc
    in
    let drained = if stop_after = Drain then drain [] 0 else [] in
    let drain_end = host_ns () in
    let failed =
      if stop_after = Drain then count_failures ~threads ~prefill lanes drained
      else 0
    in
    let first_op =
      Array.fold_left
        (fun acc l -> if l.first_op > 0 then min acc l.first_op else acc)
        finish lanes
    in
    let words f = f gc1 -. f gc0 in
    {
      ops = (match outcome with Some o -> R.total o | None -> 0);
      window_s =
        (match outcome with
        | Some { R.elapsed = Some e; _ } -> seconds_of e
        | _ -> 0.);
      setup_s = float_of_int (first_op - start) /. 1e9;
      host_window_ns = finish - first_op;
      latency = Sample.sorted (List.map (fun l -> l.latency) (Array.to_list lanes));
      alloc_words =
        words (fun g -> g.Gc.minor_words)
        +. words (fun g -> g.Gc.major_words)
        -. words (fun g -> g.Gc.promoted_words)
        -. float_of_int (grown_words lanes);
      minor_words = words (fun g -> g.Gc.minor_words);
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      failed;
      batches;
      spans =
        Array.concat
          (List.map Sample.to_array
             (List.map (fun l -> l.spans) (Array.to_list lanes) @ [ drain_spans ]));
      marks = [| start; first_op; finish; drain_end |];
    }

  (* A short history of the same workload shape through
     [Runner.history_observer], for [Sec_spec.Lin_check]; pushes use the
     drawn values here. Returns the events and the prefill, top first. *)
  let recorded ~make ~threads ~mix ~ops_per_thread ~op_overhead ~prefill () =
    let s = make () in
    for i = 1 to prefill do
      s.push ~tid:0 i
    done;
    let observer, history = R.history_observer ~threads in
    let _ =
      R.drive ~observer ~op_overhead ~threads
        ~stop:(R.Ops_per_thread ops_per_thread) ~mix ~push:s.push ~pop:s.pop
        ~peek:s.peek ()
    in
    (Sec_spec.History.events history, List.init prefill (fun i -> prefill - i))
end
