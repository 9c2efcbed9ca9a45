(* Blelloch–Wei-style concurrent fixed-size allocation: per-domain active
   slabs carved from larger chunks, with constant-time alloc and free and
   no cross-domain CAS on the common path ("Concurrent Fixed-Size
   Allocation and Free in Constant Time", PAPERS.md).

   This is the layer below {!Magazine}: each thread's magazine is its
   private L1 free-list, and this store is the slow path every refill
   and overflow takes. The exchange currency is a chain (one magazine,
   [chain_len] nodes) inside a *slab* ([slab_chains] chains), and the
   transfer protocol is wait-free:

   - [free_chain] pushes the chain onto the calling domain's *active
     slab* with plain field writes (owner-private, no atomics). Only
     when the slab is full does the domain attempt to park it on the
     shared partial-slab stack — with a SINGLE compare_and_set attempt.
     If the attempt loses, the slab simply stays active and the park is
     retried at the next boundary; nothing spins.
   - [alloc_chain] pops the active slab with plain writes. Only when it
     is dry does the domain attempt to adopt a parked slab — again one
     CAS attempt; losing means "behave as a miss" (the caller bump-
     allocates fresh nodes, which in OCaml is the minor heap doing the
     chunk carving for us). No operation ever loops on a shared atomic,
     so every path is wait-free, and the common paths touch no shared
     cache line at all.

   Cross-domain CAS accounting: at most one CAS attempt per
   [slab_chains] chains in each direction. `sec_bench alloc` reports the
   tally (docs/PERF.md, "Allocator").

   Nodes are GC-heap values ('a is the structure's node record); they
   migrate freely between slabs, so every free is owner-local by
   construction. *)

[@@@progress "lock_free"]

(* Partial-slab exchange (checked statically by sec_lint rule 13): every
   CAS on the partial-slab stack must be preceded by a fresh read of it
   on the same path — parking or adopting against a stale head would
   silently drop someone else's slab. *)
[@@@protocol
  "partial: idle -read:partial-> loaded; loaded -read:partial-> loaded; \
   loaded -rmw:partial-> idle"]

(* Process-wide tallies across every slab instance, mirroring
   {!Magazine.Global}: the harness benchmarks structures through the
   opaque {!Sec_spec.Stack_intf.S} face, and these counters are how
   `sec_bench` reports slab traffic anyway. Cells are per-thread
   (written only by their owning thread; read after worker join) and
   [reset] brackets one measured run. [pooled]/[capacity] are signed
   deltas — a chain parked by one thread and adopted by another nets to
   zero across cells — summed by [snapshot] into a gauge. *)
module Global = struct
  type cell = {
    mutable parks : int;
        [@plain_ok "one cell per thread id; read only after worker join"]
    mutable park_fails : int; [@plain_ok "see [parks]"]
    mutable adopts : int; [@plain_ok "see [parks]"]
    mutable adopt_fails : int; [@plain_ok "see [parks]"]
    mutable chain_puts : int; [@plain_ok "see [parks]"]
    mutable chain_gets : int; [@plain_ok "see [parks]"]
    mutable fresh : int; [@plain_ok "see [parks]"]
    mutable pooled : int; [@plain_ok "see [parks]"]
    mutable capacity : int; [@plain_ok "see [parks]"]
  }

  let fresh_cell () =
    {
      parks = 0;
      park_fails = 0;
      adopts = 0;
      adopt_fails = 0;
      chain_puts = 0;
      chain_gets = 0;
      fresh = 0;
      pooled = 0;
      capacity = 0;
    }

  (* Sized past any topology in lib/sim/topology.ml; ids are masked so a
     stray tid can never escape the array. *)
  let cells = Array.init 256 (fun _ -> fresh_cell ())
  let cell tid = cells.(tid land 255)

  type snapshot = {
    parks : int;  (** full slabs parked on the shared partial stack *)
    park_fails : int;  (** park CAS attempts that lost (slab kept local) *)
    adopts : int;  (** parked slabs adopted by a dry domain *)
    adopt_fails : int;  (** adopt CAS attempts that lost (treated as miss) *)
    chain_puts : int;  (** chains freed into slabs *)
    chain_gets : int;  (** chains taken out of slabs *)
    fresh : int;  (** misses: the caller had to construct fresh nodes *)
    pooled : int;  (** nodes currently held inside slabs (gauge) *)
    capacity : int;  (** node capacity of every slab created (gauge) *)
  }

  let reset () =
    Array.iter
      (fun (c : cell) ->
        c.parks <- 0;
        c.park_fails <- 0;
        c.adopts <- 0;
        c.adopt_fails <- 0;
        c.chain_puts <- 0;
        c.chain_gets <- 0;
        c.fresh <- 0;
        c.pooled <- 0;
        c.capacity <- 0)
      cells

  let snapshot () =
    Array.fold_left
      (fun (acc : snapshot) (c : cell) ->
        {
          parks = acc.parks + c.parks;
          park_fails = acc.park_fails + c.park_fails;
          adopts = acc.adopts + c.adopts;
          adopt_fails = acc.adopt_fails + c.adopt_fails;
          chain_puts = acc.chain_puts + c.chain_puts;
          chain_gets = acc.chain_gets + c.chain_gets;
          fresh = acc.fresh + c.fresh;
          pooled = acc.pooled + c.pooled;
          capacity = acc.capacity + c.capacity;
        })
      {
        parks = 0;
        park_fails = 0;
        adopts = 0;
        adopt_fails = 0;
        chain_puts = 0;
        chain_gets = 0;
        fresh = 0;
        pooled = 0;
        capacity = 0;
      }
      cells

  (* Every cross-domain CAS the slab layer issued: park and adopt
     attempts, successes and losses alike. *)
  let cas_attempts (s : snapshot) =
    s.parks + s.park_fails + s.adopts + s.adopt_fails

  let cas_retries (s : snapshot) = s.park_fails + s.adopt_fails

  let occupancy (s : snapshot) =
    if s.capacity <= 0 then 0.0
    else float_of_int s.pooled /. float_of_int s.capacity
end

(* Outside {!Make} so every instantiation shares one nominal type (and
   interfaces can name them without fixing the substrate), mirroring
   {!Magazine.stats}. *)
type stats = {
  parks : int;
  park_fails : int;
  adopts : int;
  adopt_fails : int;
  chain_puts : int;
  chain_gets : int;
  fresh : int;
  pooled : int;  (** nodes currently inside this instance's slabs *)
  parked_slabs : int;
}

let empty_stats =
  {
    parks = 0;
    park_fails = 0;
    adopts = 0;
    adopt_fails = 0;
    chain_puts = 0;
    chain_gets = 0;
    fresh = 0;
    pooled = 0;
    parked_slabs = 0;
  }

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic

  (* One slab: a bounded bundle of whole chains. Owner-private while
     active (plain fields), immutable-in-practice while parked: the
     parking store-release is the CAS on [partial], and the adopting
     domain's CAS acquires it — the usual publication idiom. *)
  type 'a slab = {
    mutable chains : (int * 'a list) list;
        [@plain_ok
          "owner-private while active; ownership is transferred wholesale \
           by the single CAS on the shared partial-slab stack"]
    mutable n_chains : int; [@plain_ok "see [chains]"]
    mutable pooled : int; [@plain_ok "see [chains]"]
  }

  (* Per-domain state: only [tid] touches its dstate (the contract
     {!Magazine} and EBR already impose). *)
  type 'a dstate = {
    mutable active : 'a slab;
        [@plain_ok "the whole dstate record is private to its owning thread"]
    mutable loose : 'a list; [@plain_ok "thread-private, see [active]"]
    mutable loose_n : int; [@plain_ok "thread-private, see [active]"]
    (* per-thread tallies, folded by [stats] *)
    mutable s_parks : int; [@plain_ok "thread-private, see [active]"]
    mutable s_park_fails : int; [@plain_ok "thread-private, see [active]"]
    mutable s_adopts : int; [@plain_ok "thread-private, see [active]"]
    mutable s_adopt_fails : int; [@plain_ok "thread-private, see [active]"]
    mutable s_chain_puts : int; [@plain_ok "thread-private, see [active]"]
    mutable s_chain_gets : int; [@plain_ok "thread-private, see [active]"]
    mutable s_fresh : int; [@plain_ok "thread-private, see [active]"]
  }

  type 'a t = {
    dstates : 'a dstate array;
    chain_len : int; (* nodes per chain = the magazine capacity above *)
    slab_chains : int; (* chains per slab *)
    partial : 'a slab list A.t; (* parked (full) slabs *)
  }

  (* [nodes] = slab_chains * chain_len: the Global capacity gauge is in
     node units, matching [pooled], so occupancy is a plain ratio. *)
  let fresh_slab ~nodes tid =
    let c = Global.cell tid in
    c.Global.capacity <- c.Global.capacity + nodes;
    { chains = []; n_chains = 0; pooled = 0 }

  let default_chain_len = 64
  let default_slab_chains = 4

  let create ?(chain_len = default_chain_len)
      ?(slab_chains = default_slab_chains) ?(max_threads = 64) () =
    if chain_len < 1 then
      invalid_arg "Slab.create: chain_len must be at least 1";
    if slab_chains < 1 then
      invalid_arg "Slab.create: slab_chains must be at least 1";
    let nodes = chain_len * slab_chains in
    {
      dstates =
        Array.init max_threads (fun tid ->
            {
              active = fresh_slab ~nodes tid;
              loose = [];
              loose_n = 0;
              s_parks = 0;
              s_park_fails = 0;
              s_adopts = 0;
              s_adopt_fails = 0;
              s_chain_puts = 0;
              s_chain_gets = 0;
              s_fresh = 0;
            });
      chain_len;
      slab_chains;
      partial = A.make_padded [];
    }

  let chain_len t = t.chain_len

  (* Park the full active slab: ONE CAS attempt. Losing is fine — the
     slab stays active (temporarily above its nominal bound) and the
     next boundary crossing tries again. Never loops: wait-free. *)
  let try_park t d ~tid =
    let c = Global.cell tid in
    let cur = A.get t.partial in
    if A.compare_and_set t.partial cur (d.active :: cur) then begin
      d.s_parks <- d.s_parks + 1;
      c.Global.parks <- c.Global.parks + 1;
      d.active <- fresh_slab ~nodes:(t.chain_len * t.slab_chains) tid
    end
    else begin
      d.s_park_fails <- d.s_park_fails + 1;
      c.Global.park_fails <- c.Global.park_fails + 1
    end

  (* Adopt a parked slab: ONE CAS attempt. Losing (or an empty partial
     stack) means the caller treats it as a miss and constructs fresh
     nodes — allocation pressure instead of waiting. Never loops. *)
  let try_adopt t d ~tid =
    let c = Global.cell tid in
    match A.get t.partial with
    | [] -> false
    | (s :: rest) as cur ->
        if A.compare_and_set t.partial cur rest then begin
          d.s_adopts <- d.s_adopts + 1;
          c.Global.adopts <- c.Global.adopts + 1;
          (* The active slab is dry (that is why we are here); replace
             it wholesale with the adopted one. *)
          d.active <- s;
          true
        end
        else begin
          d.s_adopt_fails <- d.s_adopt_fails + 1;
          c.Global.adopt_fails <- c.Global.adopt_fails + 1;
          false
        end

  (* [free_chain t ~tid (len, chain)] — O(1): the chain is consed as a
     unit, never walked. Plain owner-private writes; at most one CAS
     when the slab fills. *)
  let free_chain t ~tid ((len, _) as chain) =
    let d = t.dstates.(tid) in
    let c = Global.cell tid in
    d.active.chains <- chain :: d.active.chains;
    d.active.n_chains <- d.active.n_chains + 1;
    d.active.pooled <- d.active.pooled + len;
    d.s_chain_puts <- d.s_chain_puts + 1;
    c.Global.chain_puts <- c.Global.chain_puts + 1;
    c.Global.pooled <- c.Global.pooled + len;
    if d.active.n_chains >= t.slab_chains then try_park t d ~tid

  (* [alloc_chain t ~tid] — O(1) plain pop; at most one CAS when dry.
     [None] means the caller must construct a fresh chain (bump
     allocation: the minor heap is the chunk). *)
  let alloc_chain t ~tid =
    let d = t.dstates.(tid) in
    let c = Global.cell tid in
    let take () =
      match d.active.chains with
      | ((len, _) as chain) :: rest ->
          d.active.chains <- rest;
          d.active.n_chains <- d.active.n_chains - 1;
          d.active.pooled <- d.active.pooled - len;
          d.s_chain_gets <- d.s_chain_gets + 1;
          c.Global.chain_gets <- c.Global.chain_gets + 1;
          c.Global.pooled <- c.Global.pooled - len;
          Some chain
      | [] -> None
    in
    match take () with
    | Some _ as got -> got
    | None ->
        if try_adopt t d ~tid then take ()
        else begin
          d.s_fresh <- d.s_fresh + 1;
          c.Global.fresh <- c.Global.fresh + 1;
          None
        end

  (* Node-granular face over the same store, for callers without their
     own private free-list (the magazine keeps one; direct users get
     [loose] here). Constant-time: pop/push the loose list, exchanging
     whole chains with the active slab at the boundaries. *)
  let alloc t ~tid =
    let d = t.dstates.(tid) in
    match d.loose with
    | n :: rest ->
        d.loose <- rest;
        d.loose_n <- d.loose_n - 1;
        Some n
    | [] -> (
        match alloc_chain t ~tid with
        | Some (len, n :: chain) ->
            d.loose <- chain;
            d.loose_n <- len - 1;
            Some n
        | Some (_, []) | None -> None)

  let free t ~tid n =
    let d = t.dstates.(tid) in
    d.loose <- n :: d.loose;
    d.loose_n <- d.loose_n + 1;
    if d.loose_n >= t.chain_len then begin
      let chain = d.loose in
      d.loose <- [];
      d.loose_n <- 0;
      free_chain t ~tid (t.chain_len, chain)
    end

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                     *)

  type nonrec stats = stats = {
    parks : int;
    park_fails : int;
    adopts : int;
    adopt_fails : int;
    chain_puts : int;
    chain_gets : int;
    fresh : int;
    pooled : int;
    parked_slabs : int;
  }

  let stats t =
    let parked = A.get t.partial in
    let pooled_parked =
      List.fold_left (fun acc (s : _ slab) -> acc + s.pooled) 0 parked
    in
    Array.fold_left
      (fun (acc : stats) (d : _ dstate) ->
        {
          acc with
          parks = acc.parks + d.s_parks;
          park_fails = acc.park_fails + d.s_park_fails;
          adopts = acc.adopts + d.s_adopts;
          adopt_fails = acc.adopt_fails + d.s_adopt_fails;
          chain_puts = acc.chain_puts + d.s_chain_puts;
          chain_gets = acc.chain_gets + d.s_chain_gets;
          fresh = acc.fresh + d.s_fresh;
          pooled = acc.pooled + d.active.pooled + d.loose_n;
        })
      { empty_stats with pooled = pooled_parked; parked_slabs = List.length parked }
      t.dstates
end
