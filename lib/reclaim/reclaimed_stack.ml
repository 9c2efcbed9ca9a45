(* A Treiber stack integrated with epoch-based reclamation, following the
   paper's Section 4 methodology: traversals run inside an EBR critical
   section, and a node is retired the moment its value has been handed to
   the popping thread. In C++ the deferred destructor frees the node; in
   OCaml the GC frees memory, so the destructor instead releases whatever
   external resource rides on the node (and the tests use it to prove no
   node is destroyed while a reader might still hold it).

   Zero-allocation hot path: nodes are pooled in a per-domain
   {!Magazine}. The EBR destructor — which runs only once the grace
   period guarantees no reader can still reach the node — first fires
   the caller's [on_reclaim], then recycles the node into the retiring
   domain's magazine; the next push on any domain re-initialises it in
   place instead of allocating. Fresh nodes are constructed only on a
   magazine miss (cold start, or producers outrunning consumers) and
   are counted through [P.note_alloc].

   Every node carries a shadow-heap id ([chk], 0 outside analysis runs)
   and each lifecycle step notifies the reclamation checker, so
   [Explore.for_all ~check_reclamation:true] can verify the guard and
   retire discipline — see docs/ANALYSIS.md ("Reclamation prong"). A
   recycled node passes through [Chk.note_recycle], which checks its
   previous life really ended in reclamation and issues the id for its
   next one. *)

(* Treiber under EBR: a failed CAS means a peer succeeded, and epoch
   entry/exit never waits on another thread. *)
[@@@progress "lock_free"]
[@@@spec "stack"]

module Make (P : Sec_prim.Prim_intf.S) = struct
  module A = P.Atomic
  module Backoff = Sec_prim.Backoff.Make (P)
  module Ebr = Ebr.Make (P)
  module Mag = Magazine.Make (P)
  module Chk = Sec_analysis.Reclaim_checker

  (* All fields are mutable so a recycled node can be re-initialised in
     place. Until the publishing CAS on [top] the node is private to the
     pushing thread (fresh from the allocator, or handed over by the
     magazine after a grace period with no surviving readers). *)
  type 'a node = {
    mutable value : 'a;
        [@plain_ok
          "written only while the node is private to the pushing thread; \
           published by the CAS on [top]"]
    mutable next : 'a node option; [@plain_ok "see [value]"]
    mutable on_reclaim : unit -> unit; [@plain_ok "see [value]"]
    mutable chk : int;
        [@plain_ok "see [value]"]
        (* reclamation-checker node id; 0 when untracked *)
  }

  type 'a t = { top : 'a node option A.t; ebr : Ebr.t; mag : 'a node Mag.t }

  let create ?(max_threads = 64) () =
    {
      top = A.make_padded None;
      ebr = Ebr.create ~max_threads ();
      mag = Mag.create ~max_threads ();
    }

  (* [push t ~tid v ~on_reclaim] — [on_reclaim] runs once the node has
     been popped AND no concurrent operation can still reach it. *)
  let push t ~tid v ~on_reclaim =
    let backoff = Backoff.create () in
    Ebr.guard t.ebr ~tid (fun () ->
        let node =
          match Mag.alloc t.mag ~tid with
          | Some n ->
              n.chk <- Chk.note_recycle ~fiber:tid ~node:n.chk;
              n.value <- v;
              n.on_reclaim <- on_reclaim;
              n
          | None ->
              let chk = Chk.note_alloc ~fiber:tid in
              P.note_alloc ();
              ({ value = v; next = None; on_reclaim; chk }
              [@fresh_ok "magazine miss: cold start or pop-starved run"])
        in
        let rec attempt () =
          let cur = A.get t.top in
          node.next <- cur;
          if A.compare_and_set t.top cur (Some node) then
            Chk.note_publish ~fiber:tid ~node:node.chk
          else begin
            Backoff.once backoff;
            attempt ()
          end
        in
        attempt ())

  let pop t ~tid =
    let backoff = Backoff.create () in
    Ebr.guard t.ebr ~tid (fun () ->
        let rec attempt () =
          match A.get t.top with
          | None -> None
          | Some n as cur ->
              Chk.note_access ~fiber:tid ~node:n.chk;
              if A.compare_and_set t.top cur n.next then begin
                Chk.note_unlink ~fiber:tid ~node:n.chk;
                let v = n.value in
                (* The destructor runs after the grace period, on the
                   retiring thread: user clean-up first, then the node
                   re-enters this domain's magazine. *)
                Ebr.retire t.ebr ~tid ~chk:n.chk (fun () ->
                    n.on_reclaim ();
                    Mag.recycle t.mag ~tid n);
                Some v
              end
              else begin
                Backoff.once backoff;
                attempt ()
              end
        in
        attempt ())

  let peek t ~tid =
    Ebr.guard t.ebr ~tid (fun () ->
        match A.get t.top with
        | None -> None
        | Some n ->
            Chk.note_access ~fiber:tid ~node:n.chk;
            Some n.value)

  (* Drain deferred destructors (shutdown / tests). *)
  let flush t ~tid = Ebr.flush t.ebr ~tid

  let reclamation_stats t = Ebr.stats t.ebr
  let magazine_stats t = Mag.stats t.mag
  let slab_stats t = Mag.slab_stats t.mag
end
