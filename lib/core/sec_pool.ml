(* SEC-style concurrent pool — the paper's "of independent interest"
   claim made concrete (Sections 1 and 7: the sharded elimination and
   combining mechanisms apply to other structures, e.g. pools [13]).

   The pool is SEC's batch protocol ({!Sec_stack.Batched}: aggregators,
   freezing, batch-level elimination, one combiner per batch, lone-batch
   reuse) over a different backing store. A pool does not promise LIFO
   across threads, so each aggregator keeps its *own* Treiber-style
   stack. A push-side combiner appends its substack to its aggregator's
   top; a pop-side combiner detaches from that top first and steals from
   the other aggregators' tops if it comes up short. There is no globally
   shared hot line at all.

   Semantics: a linearizable bag — [pop] returns a value that was pushed
   and not yet popped. Emptiness is best-effort, as is standard for pools:
   a [pop] may return [None] if every backing stack it examined was empty
   at the moment its combiner examined it. *)

(* Inherits the SEC combining protocol's class: announcers wait on their
   batch's combiner, so a suspended combiner stalls its shard. *)
[@@@progress "blocking"]
[@@@spec "pool"]

module Make (P : Sec_prim.Prim_intf.S) = struct
  module Top = Sec_stack.Shared_top (P)

  (* The stack's store, once per aggregator. *)
  module Store = struct
    type 'a t = 'a Top.t array

    let create config ~aggregators =
      Array.init aggregators (fun _ -> Top.create config ~aggregators:1)

    let append s ~agg ~patience bottom top =
      Top.append s.(agg) ~agg ~patience bottom top

    (* How many of the first [k] nodes of a chain from [n] it has. *)
    let rec span (n : _ Sec_stack.node) k =
      match n.next with Some m when k > 1 -> 1 + span m (k - 1) | _ -> 1

    let rec last (n : _ Sec_stack.node) =
      match n.next with Some m -> last m | None -> n

    (* Source [j] of a pop from aggregator [agg]: its own store first,
       then the others' in turn (stealing). *)
    let source s ~agg j = s.((agg + j) mod Array.length s)

    (* Hangs what sources [j..] yield, up to [wanted] nodes, after [tail].
       A segment shorter than asked emptied its store, so [tail], its
       last node, ends at [None]; the last segment may still point into
       a live store, but readers stop after [wanted] nodes. *)
    let rec steal s ~agg ~patience tail wanted j =
      if j < Array.length s then
        match Top.detach (source s ~agg j) ~agg ~patience wanted with
        | None -> steal s ~agg ~patience tail wanted (j + 1)
        | Some n as segment ->
            tail.Sec_stack.next <- segment;
            let taken = span n wanted in
            if taken < wanted then
              steal s ~agg ~patience (last n) (wanted - taken) (j + 1)

    (* The first non-empty source's segment, extended by [steal]. *)
    let rec detach_from s ~agg ~patience wanted j =
      if j = Array.length s then None
      else
        match Top.detach (source s ~agg j) ~agg ~patience wanted with
        | None -> detach_from s ~agg ~patience wanted (j + 1)
        | Some n as chain ->
            let taken = span n wanted in
            if taken < wanted then
              steal s ~agg ~patience (last n) (wanted - taken) (j + 1);
            chain

    let detach s ~agg ~patience wanted = detach_from s ~agg ~patience wanted 0

    let rec pop_from s ~agg j =
      if j = Array.length s then None
      else
        match Top.pop_alone (source s ~agg j) ~agg with
        | None -> pop_from s ~agg (j + 1)
        | popped -> popped

    let pop_alone s ~agg = pop_from s ~agg 0
  end

  module Core = Sec_stack.Batched (P) (Store)

  type 'a t = 'a Core.t

  let name = "SEC-pool"

  (* The pool's freezer budget is 512 relax units, half the stack's. At
     512 the freezer never extends its probe; at 1024 it adds a
     1024-unit window whenever a second operation arrives, which made
     the pool 2.5x slower at 4 and 8 threads in the simulator
     (extension-pool, seed 1). *)
  let create ?(aggregators = 2) ?(max_threads = 64) () =
    Core.create_with
      ~config:
        {
          Config.default with
          Config.num_aggregators = aggregators;
          freeze_backoff = 512;
        }
      ~max_threads ()

  (* Applied rather than aliased: sec_lint's call graph follows
     applications, and through them the batch protocol's waits that make
     this module blocking (rule 12). *)
  let push t ~tid value = Core.push t ~tid value
  let pop t ~tid = Core.pop t ~tid

  (* Total nodes across the backing stores. O(n); single snapshot per
     store; tests and examples only. *)
  let size t =
    Array.fold_left (fun acc top -> acc + Top.depth top) 0 (Core.store t)
end
