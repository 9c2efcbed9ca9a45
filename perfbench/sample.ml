(* Growable int buffers and exact order statistics over recorded
   samples. Buffers are filled by one thread each during a measured
   window; the words a buffer allocates when it grows are tallied so the
   window's heap-allocation figure can leave the benchmark's own
   bookkeeping out. *)

type buf = {
  mutable data : int array;
  mutable len : int;
  mutable grown_words : int;
}

let buf capacity = { data = Array.make (max 16 capacity) 0; len = 0; grown_words = 0 }

let add b x =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.grown_words <- b.grown_words + Array.length bigger + 1;
    b.data <- bigger
  end;
  Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let iter f b =
  for i = 0 to b.len - 1 do
    f (Array.unsafe_get b.data i)
  done

let to_array b = Array.sub b.data 0 b.len

(* All values of [bufs], sorted ascending. *)
let sorted bufs =
  let a = Array.concat (List.map to_array bufs) in
  Array.sort compare a;
  a

(* Exact median of a sorted array: the mean of the two middle values
   when the count is even. *)
let median_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then float_of_int a.(n / 2)
  else (float_of_int a.((n / 2) - 1) +. float_of_int a.(n / 2)) /. 2.

(* Nearest-rank [p]-quantile of a sorted array (the smallest value with
   at least a share [p] of the samples at or below it). *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))

let median floats =
  let a = Array.of_list floats in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank [p]-quantile of [floats]. *)
let quantile floats p =
  let a = Array.of_list floats in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
