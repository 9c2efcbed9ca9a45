(* SEC — Sharded Elimination and Combining stack (the paper's Algorithms 1
   and 2, Figure 1).

   Threads are sharded over K aggregators by thread id. Each aggregator
   points to its currently active *batch*. A thread announces an operation
   by fetch&increment on the batch's push or pop counter; the returned
   sequence number names an elimination-array slot (pushes deposit their
   node there immediately). The first announcer of either type wins a
   test&set and becomes the batch's *freezer*: after a short backoff (to
   let the batch grow) it snapshots both counters into
   [push_at_freeze]/[pop_at_freeze] and installs a fresh batch in the
   aggregator, which releases every announcer:

   - announcers whose sequence number is not below the freeze snapshot do
     not belong to the batch and retry in a later batch;
   - the first min(pushes, pops) operations of each type eliminate
     pairwise through the elimination array;
   - the survivors are all of one type; the one with the lowest surviving
     sequence number becomes the *combiner* and applies them all to the
     backing store with a single CAS (appending a pre-linked substack, or
     unlinking a chain of nodes), then raises [batch_applied]; waiting
     pops find their results by indexing into the detached substack
     ([get_value]).

   On an aggregator that only one thread id reaches ([exclusive]), a
   batch that freezes with only its freezer's operation is not replaced:
   the freezer CASes both counters shut, resets the batch and reopens it
   at once, then applies its operation to the store directly (like a
   Treiber push or pop), so that thread allocates no batch. An announcer
   whose fetch&add finds a counter shut (another thread using the same
   id) waits for the reopening and retries ([close_alone]).

   The batch protocol ([Batched]) is a functor over its backing store
   ({!STORE}): the structure the combiners apply their batches to. [Make]
   plugs in one shared top ([Shared_top]); {!Sec_pool} plugs in one top
   per aggregator with stealing pops.

   Linearization (paper, Section 5): eliminated pairs linearize together
   at the exchange; non-eliminated operations linearize at their
   combiner's successful CAS, ordered by sequence number; an operation
   alone in its batch linearizes at its own CAS on the stack top (a pop
   of an empty stack, at its read of it). *)

(* The combining protocol is blocking: an announcer whose batch's freezer
   (or combiner) is suspended spins on [batch_applied] forever. The
   sharded elimination fast path is nonetheless lock-free — a suspension
   on one aggregator cannot stall threads mapped to another shard — and
   test/test_progress.ml checks both facts mechanically. *)
[@@@progress "blocking"]
[@@@spec "stack"]

(* Batch lifecycle (checked statically by sec_lint rule 13): announcing
   (counter FAAs, elimination-slot deposits) and the freezer race on
   [freezer_decided] happen only while the batch is open; the freeze
   snapshot writes [pop_at_freeze] strictly before [push_at_freeze]
   (push's elimination test reads pops-at-freeze through the push
   counter, so the reverse order would under-eliminate); and only a
   fully snapped batch may be retired by installing its successor. A
   batch of an exclusive aggregator frozen with one operation is instead
   reused in place: frozen -> closed (both counters CASed shut) -> reset
   ([freezer_decided] and slot 0 cleared) -> open (both counters stored
   back to 0). Reopening before the reset would hand sequence number 0
   to an announcer that then finds [freezer_decided] still set, and a
   batch nobody freezes. *)
[@@@protocol
  "batch: open -rmw:push_count-> open; open -rmw:pop_count-> open; open \
   -write:elimination-> open; open -rmw:freezer_decided-> open; open \
   -write:pop_at_freeze-> snapped; snapped -write:push_at_freeze-> frozen; \
   frozen -write:batch-> open; frozen -rmw:push_count-> closed; frozen \
   -rmw:pop_count-> closed; closed -rmw:push_count-> closed; closed \
   -rmw:pop_count-> closed; closed -write:batch-> open; closed \
   -write:freezer_decided-> reset; reset -write:elimination-> reset; reset \
   -write:push_count-> reset; reset -write:pop_count-> open"]

type 'a node = {
  mutable value : 'a;
      [@plain_ok
        "written while the node is private to its pusher (fresh, or \
         recycled after its last reader provably finished); published \
         by the elimination-slot store or the combiner's CAS on a store \
         top"]
  mutable next : 'a node option;
      [@plain_ok
        "linked while the node is still private to one combiner; \
         published wholesale by the combiner's release CAS on a store \
         top"]
}

(* The freezer's first probe, in relax units, and the range of a paced
   retry's random wait. A freezer alone on its aggregator, by routing or
   as last seen, skips the probe; see [freezer_backoff] and
   [Shared_top.pace]. *)
let full_probe config = max 512 (config.Config.freeze_backoff / 32)

(* The structure a batch's survivors are applied to (documented in the
   interface). Its operations run once per combined batch or lone
   operation, and allocate nothing. *)
module type STORE = sig
  type 'a t

  val create : Config.t -> aggregators:int -> 'a t
  val append : 'a t -> agg:int -> patience:int -> 'a node -> 'a node -> unit
  val detach : 'a t -> agg:int -> patience:int -> int -> 'a node option
  val pop_alone : 'a t -> agg:int -> 'a node option
end

module Batched (P : Sec_prim.Prim_intf.S) (S : STORE) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Counter = Sec_prim.Striped_counter.Make (P)
  module Mag = Sec_reclaim.Magazine.Make (P)

  type 'a batch = {
    push_count : int A.t;
    pop_count : int A.t;
    push_at_freeze : int A.t;
    pop_at_freeze : int A.t;
    elimination : 'a node option A.t array;
    freezer_decided : bool A.t;
    batch_applied : bool A.t;
    substack : 'a node option A.t;
        (* chain detached by a pop-side combiner, read by [get_value] *)
    consumed : int A.t;
        (* combined pops done reading [substack]; the last one may
           recycle the detached chain (only touched with
           [Config.recycle_nodes]) *)
    prev_degree : int;
        (* operations frozen into the batch this one replaced
           ([unknown_degree] for an aggregator's first batch) *)
    prev_freezer : int; (* tid that froze the batch this one replaced *)
  }

  type 'a aggregator = {
    batch : 'a batch A.t;
    exclusive : bool;
        (* only one tid below [capacity] routes here: its freezer need
           not wait for others, and a batch it freezes alone is reused *)
    index : int; (* position in [aggregators], passed to the store *)
  }

  type stats_counters = {
    batches : Counter.t;
    operations : Counter.t;
    eliminated : Counter.t;
    combined : Counter.t;
    excluded : Counter.t;
  }

  type 'a t = {
    store : 'a S.t;
    aggregators : 'a aggregator array;
    capacity : int; (* elimination-array size = max_threads *)
    config : Config.t;
    stats : stats_counters option;
    (* Zero-allocation hot path: [Some] only under
       [Config.recycle_nodes], so a non-recycling stack builds no
       allocator and the per-op branch is a plain read. *)
    mag : 'a node Mag.t option;
    (* Contention-adaptive sharding ([Config.adaptive]): the number of
       aggregators announcements actually route to, moved between 1 and
       [Array.length aggregators] by the freeze-time controller. *)
    active : int A.t;
    win_ops : int A.t; (* operations frozen in the current window *)
    win_batches : int A.t; (* batches frozen in the current window *)
  }

  (* Degree recorded in an aggregator's first batch: no predecessor was
     observed, so its freezer takes the full initial probe. *)
  let unknown_degree = max_int

  (* Counter value of a batch closed alone (see [close_alone]): far above
     any count, so an announcer whose fetch&add returns [closed] or more
     knows the batch is shut. *)
  let closed = 1 lsl 40

  (* Announcements of the current life on a counter. The freezer of a
     lone life stores the two counters back to 0 one after the other,
     so the next life's freezer may still find one of them closed: it
     holds no announcement of that life yet. *)
  let announcements c =
    let v = A.get c in
    if v >= closed then 0 else v

  let make_batch capacity ~prev_degree ~prev_freezer =
    {
      push_count = A.make_padded 0;
      pop_count = A.make_padded 0;
      push_at_freeze = A.make_padded (-1);
      pop_at_freeze = A.make_padded (-1);
      (* Each elimination slot belongs to a different announcing thread;
         adjacent unpadded slots would false-share under the paper's
         hottest path (announce/collect). *)
      elimination = Array.init capacity (fun _ -> A.make_padded None);
      freezer_decided = A.make_padded false;
      batch_applied = A.make_padded false;
      substack = A.make_padded None;
      consumed = A.make_padded 0;
      prev_degree;
      prev_freezer;
    }

  let create_with ~config ?(max_threads = 64) () =
    (* Routing is [tid mod K] with every tid below [max_threads], so
       clamping K to the thread count is routing-equivalent (aggregators
       past it could never be reached) — it keeps harness runs at low
       thread counts working with a high configured K. Nonsensical
       configurations built by hand still fail [Config.validate]. *)
    let config =
      if config.Config.num_aggregators > max_threads then
        { config with Config.num_aggregators = max_threads }
      else config
    in
    Config.validate ~capacity:max_threads config;
    let k = config.Config.num_aggregators in
    {
      store = S.create config ~aggregators:k;
      aggregators =
        Array.init k (fun i ->
            {
              batch =
                A.make_padded
                  (make_batch max_threads ~prev_degree:unknown_degree
                     ~prev_freezer:(-1));
              (* Static routing sends aggregator [i] the tids below
                 [max_threads] congruent to [i] mod [k]: one exactly
                 when [i + k >= max_threads]. Adaptive routing changes
                 [k], so there any tid may land anywhere. *)
              exclusive =
                (if config.Config.adaptive then max_threads = 1
                 else i + k >= max_threads);
              index = i;
            });
      capacity = max_threads;
      config;
      stats =
        (if config.Config.collect_stats then
           Some
             {
               batches = Counter.create ();
               operations = Counter.create ();
               eliminated = Counter.create ();
               combined = Counter.create ();
               excluded = Counter.create ();
             }
         else None);
      mag =
        (if config.Config.recycle_nodes then Some (Mag.create ~max_threads ())
         else None);
      (* Adaptive runs start consolidated (K = 1, the best single-thread
         setting) and grow under pressure; the field is untouched — and
         never read — without [Config.adaptive]. *)
      active = A.make_padded 1;
      win_ops = A.make_padded 0;
      win_batches = A.make_padded 0;
    }

  let store t = t.store

  let aggregator_of t tid =
    let k =
      if t.config.Config.adaptive then A.get t.active
      else Array.length t.aggregators
    in
    t.aggregators.(tid mod k)

  (* Current routing width: K under static sharding, the controller's
     choice under [Config.adaptive] (tests and docs/PERF.md). *)
  let active_aggregators t =
    if t.config.Config.adaptive then A.get t.active
    else Array.length t.aggregators

  (* ------------------------------------------------------------------ *)
  (* Freezing (paper: FreezeBatch, lines 28–32)                          *)

  let note_excluded t ~tid =
    match t.stats with Some s -> Counter.incr s.excluded ~tid | None -> ()

  let record_batch_stats t ~tid ~pushes ~pops =
    match t.stats with
    | None -> ()
    | Some s ->
        let eliminated = 2 * min pushes pops in
        Counter.incr s.batches ~tid;
        Counter.add s.operations ~tid (pushes + pops);
        Counter.add s.eliminated ~tid eliminated;
        Counter.add s.combined ~tid (pushes + pops - eliminated)

  (* Contention controller (cf. "A Dynamic Elimination-Combining Stack
     Algorithm", PAPERS.md): every freeze feeds its batch size into a
     window; once [adapt_window] batches have been frozen, the freezer
     that closes the window compares the window's mean batching degree
     against two thresholds and widens or narrows the routing. Hysteresis
     (grow at a mean of >= [grow_degree] ops/batch, shrink only at
     <= [shrink_degree]) keeps the controller from oscillating on
     workloads that hover between the two. Runs without [Config.adaptive]
     never touch these cells, so the static path is unchanged. *)
  let adapt_window = 16
  let grow_degree = 4
  let shrink_degree_x2 = 3 (* shrink when 2 * mean <= 3, i.e. mean <= 1.5 *)

  let adapt t ~ops =
    ignore (A.fetch_and_add t.win_ops ops);
    let b = A.fetch_and_add t.win_batches 1 + 1 in
    if b >= adapt_window && A.compare_and_set t.win_batches b 0 then begin
      (* One winner per window: the CAS above closes it, the exchange
         claims its tally (concurrent freezers may have added a few more
         ops — they roll into this window's mean, which is fine). *)
      let total = A.exchange t.win_ops 0 in
      let k = A.get t.active in
      if total >= grow_degree * b && k < Array.length t.aggregators then
        A.set t.active (k + 1)
      else if 2 * total <= shrink_degree_x2 * b && k > 1 then
        A.set t.active (k - 1)
    end

  let probe_skipped t ~tid batch =
    t.config.Config.freeze_backoff > 0
    && batch.prev_degree <= 1
    && batch.prev_freezer = tid

  (* The freezer lingers so more operations join the batch, raising the
     elimination/combining degree (paper, Section 3.1). The wait is
     adaptive, both before and during the probe (cf. the per-operation
     adaptation in "A Dynamic Elimination-Combining Stack Algorithm",
     PAPERS.md): its first probe is sized from what the aggregator's
     previous batch saw, and past the probe the freezer keeps waiting
     only while the batch is still growing, up to [freeze_backoff] relax
     units in total. *)
  let freezer_backoff t ~tid aggregator batch =
    let budget = t.config.Config.freeze_backoff in
    if budget > 0 then begin
      (* Initial probe. Nobody else can join a batch of an exclusive
         aggregator, and a thread that froze the previous batch alone is
         most likely still alone on its aggregator, so there one relax
         unit replaces the 512-unit probe that would otherwise be nearly
         all of a lone thread's operation. The same-[tid] test matters:
         two threads alternating on one aggregator also leave batches of
         degree 1, each frozen by the other thread, and there the full
         probe is what lets them meet in one batch. The one unit is kept
         rather than none because it is still a yield (in the simulator,
         a scheduling point): an announcer already on its way can land,
         and the freezer then extends below as before. *)
      let initial =
        if aggregator.exclusive || probe_skipped t ~tid batch then 1
        else full_probe t.config
      in
      (* If anything else announced during the probe, keep extending in
         windows long enough to cover a contended cross-socket announce —
         or a thread whose fetch&increment queues behind a few others
         misses every batch's window and starves. *)
      let extension = max 1024 (budget / 8) in
      let announced () =
        announcements batch.push_count + announcements batch.pop_count
      in
      P.relax initial;
      let after_initial = announced () in
      if after_initial > 1 then begin
        (* Others are arriving: let the batch grow. *)
        let rec wait spent seen =
          if spent < budget then begin
            P.relax extension;
            let now = announced () in
            if now > seen then wait (spent + extension) now
          end
        in
        wait initial after_initial
      end
    end

  (* A batch of an exclusive aggregator frozen with one operation, its
     freezer's, is closed to later announcers (threads sharing the id):
     its counters, read at 1 and 0 by the snapshot, are CASed to
     [closed]. A failed CAS means someone announced after the snapshot;
     that announcer is excluded as usual and may still read the batch,
     so the batch is then retired as usual. Shared aggregators never
     close a batch: there, retiring every batch keeps the paper's
     lifecycle, in which a thread that misses a batch meets the next
     one's full probe. *)
  let close_alone batch ~pushed =
    if pushed then
      A.compare_and_set batch.push_count 1 closed
      && A.compare_and_set batch.pop_count 0 closed
    else
      A.compare_and_set batch.pop_count 1 closed
      && A.compare_and_set batch.push_count 0 closed

  (* Freezes [batch] and returns whether it closed alone. *)
  let freeze_batch t ~tid aggregator batch =
    freezer_backoff t ~tid aggregator batch;
    (* When more live threads than [max_threads] announce into one batch,
       the counters race past [capacity]. Announcements at or past it own
       no elimination slot (the push path bails out before depositing), so
       the snapshot must exclude them; they retry in a later batch.
       [Batch_overflow] is the seeded mutant reintroducing the unclamped
       snapshot (Config.mutation — refinement-prong tests only). *)
    let clamp c =
      if t.config.Config.mutation = Config.Batch_overflow then c
      else min c t.capacity
    in
    let pops = clamp (announcements batch.pop_count) in
    let pushes = clamp (announcements batch.push_count) in
    A.set batch.pop_at_freeze pops;
    A.set batch.push_at_freeze pushes;
    record_batch_stats t ~tid ~pushes ~pops;
    if t.config.Config.adaptive then adapt t ~ops:(pushes + pops);
    if
      aggregator.exclusive
      && pushes + pops = 1
      && close_alone batch ~pushed:(pushes = 1)
    then begin
      (* Closed alone: nobody else announced or can, and the freezer's
         own operation never reads the batch again ([Alone]), so the
         batch is its own successor. Undo what the operation wrote and
         reopen. *)
      A.set batch.freezer_decided false;
      if pushes = 1 then A.set batch.elimination.(0) None;
      A.set batch.push_count 0;
      A.set batch.pop_count 0;
      true
    end
    else begin
      (* Installing the new batch is what releases the waiting announcers;
         it carries this batch's degree and freezer to its own freezer's
         initial probe. *)
      P.note_alloc ();
      A.set aggregator.batch
        (make_batch t.capacity ~prev_degree:(pushes + pops) ~prev_freezer:tid);
      false
    end

  (* Where an announcement stands once its batch is frozen. [Alone]: it
     froze and closed the batch by itself, and applies its operation to
     the stack directly. *)
  type membership = Excluded | Included | Alone

  (* Announce via FAA, then either freeze (if we won the seq-0 test&set
     race) or wait until the freezer retires the batch. *)
  let announce_and_freeze t ~tid aggregator batch ~seq ~counter_at_freeze =
    let alone =
      if seq = 0 && not (A.exchange batch.freezer_decided true) then
        freeze_batch t ~tid aggregator batch
      else begin
        Backoff.spin_while (fun () -> A.get aggregator.batch == batch);
        false
      end
    in
    if alone then Alone
    else if seq < A.get counter_at_freeze then Included
    else begin
      note_excluded t ~tid;
      Excluded
    end

  (* An announcer whose fetch&add found its counter closed touches
     nothing else in [batch]: it waits until the batch is reopened (or,
     if the close failed halfway, replaced) and retries. *)
  let wait_closed t ~tid aggregator batch counter =
    note_excluded t ~tid;
    Backoff.spin_while (fun () ->
        A.get aggregator.batch == batch && A.get counter >= closed)

  (* ------------------------------------------------------------------ *)
  (* Combining for pushes (paper: PushToStack, lines 33–51)              *)

  let node_of batch i =
    (* The announcer with sequence number [i] deposits its node right
       after its FAA; the combiner may momentarily have to wait for it. *)
    Backoff.spin_until (fun () ->
        match A.get batch.elimination.(i) with Some _ -> true | None -> false);
    match A.get batch.elimination.(i) with
    | Some n -> n
    | None -> assert false

  (* Combiners retry immediately at first: there are at most K of them,
     an entire batch of waiters stalls while one dawdles, and backing off
     after a failed CAS just surrenders the loser's place behind a stream
     of fresh combiners. Past [patience] consecutive failures a combiner
     waits a random part of the full probe before each retry:
     - after one failure if its own freeze skipped the probe: the probe
       also spaced such threads' CASes on [top], and without it four
       threads each alone on one of four aggregators fail about eight
       CASes per operation in the simulator;
     - after three failures otherwise: a thread briefly alone on its
       aggregator can land its short operations between the other
       combiners' reads and CASes in lockstep, which starved every big
       batch for most of one simulated push-only run.
     An operation alone in its batch retries like a combiner whose
     freeze skipped the probe. *)
  let patience t ~tid batch = if probe_skipped t ~tid batch then 1 else 3

  let push_to_store t ~tid aggregator batch ~seq =
    let push_frozen = A.get batch.push_at_freeze in
    (* Link the surviving pushes [seq .. push_frozen) into a substack:
       higher sequence numbers end up nearer the top. *)
    let bottom = node_of batch seq in
    let top_of_substack = ref bottom in
    for i = seq + 1 to push_frozen - 1 do
      let n = node_of batch i in
      n.next <- Some !top_of_substack;
      top_of_substack := n
    done;
    S.append t.store ~agg:aggregator.index ~patience:(patience t ~tid batch)
      bottom !top_of_substack

  (* ------------------------------------------------------------------ *)
  (* Combining for pops (paper: PopFromStack + GetValue, lines 80–103)   *)

  let pop_from_store t ~tid aggregator batch ~seq =
    let pop_frozen = A.get batch.pop_at_freeze in
    A.set batch.substack
      (S.detach t.store ~agg:aggregator.index ~patience:(patience t ~tid batch)
         (pop_frozen - seq))

  let get_value batch ~offset =
    let rec walk node k =
      match node with
      | None -> None
      | Some n -> if k = 0 then Some n.value else walk n.next (k - 1)
    in
    walk (A.get batch.substack) offset

  (* The detached chain's nodes are unreachable from [top] (the combiner's
     CAS snipped them out), so once every combined pop of the batch has
     read its value the chain can be recycled. Each reader bumps
     [batch.consumed] *after* its [get_value]; the one that brings it to
     the participant count walks the chain. [next] is read before the
     node is recycled: a recycled node can be adopted (via a parked
     slab) and re-initialised by another thread immediately. *)
  let recycle_chain mag ~tid batch ~limit =
    let rec walk node k =
      if k < limit then
        match node with
        | None -> () (* batch outran the stack: chain is shorter *)
        | Some n ->
            let next = n.next in
            Mag.recycle mag ~tid n;
            walk next (k + 1)
    in
    walk (A.get batch.substack) 0

  (* ------------------------------------------------------------------ *)
  (* Public operations (paper: Algorithms 1 and 2)                       *)

  (* A recycled node is private to this push until the elimination-slot
     store publishes it: its previous life ended either in an eliminated
     pop (the only reader read the value before recycling) or in a
     detached chain whose last reader recycled it after every [get_value]
     completed, so the in-place stores below race with nothing. *)
  let make_node t ~tid value =
    match t.mag with
    | Some mag -> (
        match Mag.alloc mag ~tid with
        | Some n ->
            n.value <- value;
            n.next <- None;
            n
        | None ->
            P.note_alloc ();
            ({ value; next = None }
            [@fresh_ok "magazine miss: cold start or pop-starved run"]))
    | None ->
        P.note_alloc ();
        ({ value; next = None } [@fresh_ok "recycling disabled in config"])

  (* A pop's value from a node that no one else reads, eliminated or
     unlinked alone: with recycling on, the node goes straight back to a
     magazine. *)
  let take t ~tid n =
    let v = n.value in
    (match t.mag with Some mag -> Mag.recycle mag ~tid n | None -> ());
    Some v

  (* The retry loops are top-level functions rather than closures local
     to [push] and [pop]: a local closure would be allocated on every
     operation, with a word for each helper it calls. *)
  let rec push_batch t ~tid aggregator node =
    let batch = A.get aggregator.batch in
    let seq = A.fetch_and_add batch.push_count 1 in
    if seq >= closed then begin
      wait_closed t ~tid aggregator batch batch.push_count;
      push_batch t ~tid aggregator node
    end
    else if seq >= t.capacity then begin
      (* No elimination slot for us: more announcements landed in this
         batch than the stack was sized for (live threads exceed
         [max_threads]). The freeze snapshot clamps to [capacity], so we
         are excluded by construction — wait out the batch and retry. *)
      note_excluded t ~tid;
      Backoff.spin_while (fun () -> A.get aggregator.batch == batch);
      push_batch t ~tid aggregator node
    end
    else begin
      A.set batch.elimination.(seq) (Some node);
      match
        announce_and_freeze t ~tid aggregator batch ~seq
          ~counter_at_freeze:batch.push_at_freeze
      with
      | Excluded -> push_batch t ~tid aggregator node
      | Alone -> S.append t.store ~agg:aggregator.index ~patience:1 node node
      | Included ->
          let pop_frozen = A.get batch.pop_at_freeze in
          if seq >= pop_frozen then
            (* Not eliminated; the smallest surviving push combines. *)
            if seq = pop_frozen then begin
              push_to_store t ~tid aggregator batch ~seq;
              A.set batch.batch_applied true
            end
            else Backoff.spin_until (fun () -> A.get batch.batch_applied)
          (* else: a pop with our sequence number consumed our node. *)
    end

  let push t ~tid value =
    push_batch t ~tid (aggregator_of t tid) (make_node t ~tid value)

  let rec pop_batch t ~tid aggregator =
    let batch = A.get aggregator.batch in
    let seq = A.fetch_and_add batch.pop_count 1 in
    if seq >= closed then begin
      wait_closed t ~tid aggregator batch batch.pop_count;
      pop_batch t ~tid aggregator
    end
    else
      match
        announce_and_freeze t ~tid aggregator batch ~seq
          ~counter_at_freeze:batch.pop_at_freeze
      with
      | Excluded -> pop_batch t ~tid aggregator
      | Alone -> (
          match S.pop_alone t.store ~agg:aggregator.index with
          | Some n -> take t ~tid n
          | None -> None)
      | Included ->
          let push_frozen = A.get batch.push_at_freeze in
          if seq < push_frozen then begin
            (* Eliminated: take the value deposited by the push that
               shares our sequence number. *)
            take t ~tid (node_of batch seq)
          end
          else begin
            if seq = push_frozen then begin
              pop_from_store t ~tid aggregator batch ~seq;
              A.set batch.batch_applied true
            end
            else Backoff.spin_until (fun () -> A.get batch.batch_applied);
            let v = get_value batch ~offset:(seq - push_frozen) in
            (match t.mag with
            | Some mag ->
                (* Participants in the combined phase are exactly the
                   pops with sequence numbers in [push_frozen,
                   pop_frozen) — the combiner included. The last to
                   finish reading recycles the detached chain. *)
                let total = A.get batch.pop_at_freeze - push_frozen in
                let finished = A.fetch_and_add batch.consumed 1 + 1 in
                if finished = total then
                  recycle_chain mag ~tid batch ~limit:total
            | None -> ());
            v
          end

  let pop t ~tid = pop_batch t ~tid (aggregator_of t tid)

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)

  let stats t =
    match t.stats with
    | None -> Sec_stats.empty
    | Some s ->
        {
          Sec_stats.batches = Counter.get s.batches;
          operations = Counter.get s.operations;
          eliminated = Counter.get s.eliminated;
          combined = Counter.get s.combined;
          excluded = Counter.get s.excluded;
        }

  let config t = t.config
  let magazine_stats t =
    match t.mag with
    | Some mag -> Mag.stats mag
    | None -> Sec_reclaim.Magazine.empty_stats

  let magazine_hit_rate t =
    match t.mag with Some mag -> Mag.hit_rate mag | None -> 0.0

  let slab_stats t =
    match t.mag with
    | Some mag -> Mag.slab_stats mag
    | None -> Sec_reclaim.Slab.empty_stats
end

(* The stack's store: one Treiber-style stack (the paper's stackTop,
   Figure 1) that every aggregator's combiners CAS. {!Sec_pool} keeps one
   per aggregator. *)
module Shared_top (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic

  type 'a t = {
    top : 'a node option A.t;
    probe : int; (* [full_probe] of the configuration *)
    reorder : bool; (* the [Pop_reorder] mutant *)
    recycling : bool; (* nodes may be recycled: [peek] revalidates *)
  }

  let create config ~aggregators:_ =
    {
      top = A.make_padded None;
      probe = full_probe config;
      reorder = config.Config.mutation = Config.Pop_reorder;
      recycling = config.Config.recycle_nodes;
    }

  let pace s ~patience ~failed =
    if failed >= patience then P.relax (1 + P.rand_int s.probe)

  let rec push_attempt s bottom substack ~patience ~failed =
    let current_top = A.get s.top in
    bottom.next <- current_top;
    if not (A.compare_and_set s.top current_top (Some substack)) then begin
      pace s ~patience ~failed;
      push_attempt s bottom substack ~patience ~failed:(failed + 1)
    end

  let append s ~agg:_ ~patience bottom top =
    push_attempt s bottom top ~patience ~failed:0

  let rec pop_attempt s to_remove ~patience ~failed =
    let current_top = A.get s.top in
    (* Walk down min(to_remove, depth) nodes; the remainder of the batch
       will observe an empty stack. *)
    let rec walk node k =
      if k = 0 then node
      else match node with None -> None | Some n -> walk n.next (k - 1)
    in
    let new_top = walk current_top to_remove in
    if A.compare_and_set s.top current_top new_top then
      (* [Pop_reorder] is the seeded mutant publishing the remaining
         stack instead of the detached chain (Config.mutation —
         refinement-prong tests only). *)
      if s.reorder then new_top else current_top
    else begin
      pace s ~patience ~failed;
      pop_attempt s to_remove ~patience ~failed:(failed + 1)
    end

  let detach s ~agg:_ ~patience n = pop_attempt s n ~patience ~failed:0

  (* An operation alone in its batch unlinks the top node like a Treiber
     pop; an empty stack is seen at the read. *)
  let rec pop_one s ~failed =
    match A.get s.top with
    | None -> None
    | Some n as current_top ->
        if A.compare_and_set s.top current_top n.next then current_top
        else begin
          pace s ~patience:1 ~failed;
          pop_one s ~failed:(failed + 1)
        end

  let pop_alone s ~agg:_ = pop_one s ~failed:0

  (* With recycling off, a node reachable from [top] is immutable, so one
     read suffices. With recycling on, the node could be popped, recycled
     and re-initialised between our load of [top] and our read of
     [value] — so revalidate that [top] still holds the same option cell
     afterwards. Every push publishes a fresh [Some] box, so physical
     equality proves the stack did not move under us (and a node still at
     the top cannot have been recycled: recycling happens only after the
     node is unlinked). *)
  let peek s =
    let rec attempt () =
      match A.get s.top with
      | None -> None
      | Some n as cur ->
          let v = n.value in
          if (not s.recycling) || A.get s.top == cur then Some v
          else begin
            P.relax 1;
            attempt ()
          end
    in
    attempt ()

  let depth s =
    let rec count node acc =
      match node with None -> acc | Some n -> count n.next (acc + 1)
    in
    count (A.get s.top) 0
end

module Make (P : Sec_prim.Prim_intf.S) = struct
  module Store = Shared_top (P)
  include Batched (P) (Store)

  let name = "SEC"
  let create ?max_threads () = create_with ~config:Config.default ?max_threads ()
  let peek t ~tid:_ = Store.peek t.store

  (* Current depth of the shared stack; O(n), single snapshot of [top],
     for tests and examples only. *)
  let depth t = Store.depth t.store
end
