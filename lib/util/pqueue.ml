(* Binary min-heap over (priority, seq, value); [seq] breaks ties FIFO.

   Stored as parallel arrays rather than an array of records: the
   priorities live in an unboxed float array, so a push allocates nothing
   (a record with a float field would box the float on every push — the
   searches push tens of millions of frontier entries), and the sift
   comparisons walk one contiguous float array.

   Every slot outside [0, size) holds [dummy]. Without that discipline a
   pop leaves the vacated slot pointing at whatever lived there before
   the swap, and [grow]'s [Array.make] pins the triggering push's value
   in every unused slot — on a frontier that grew to millions of entries
   the dead region retains popped values (trees, annotations) for as
   long as the queue lives, and the GC cannot see past them. *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy = { prio = [||]; seq = [||]; value = [||]; size = 0; next_seq = 0; dummy }
let is_empty q = q.size = 0
let length q = q.size

let top_prio q = q.prio.(0)
let top_seq q = q.seq.(0)

let grow q =
  let cap = Array.length q.prio in
  if q.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let np = Array.make ncap 0. in
    Array.blit q.prio 0 np 0 q.size;
    q.prio <- np;
    let ns = Array.make ncap 0 in
    Array.blit q.seq 0 ns 0 q.size;
    q.seq <- ns;
    let nv = Array.make ncap q.dummy in
    Array.blit q.value 0 nv 0 q.size;
    q.value <- nv
  end

(* Both sifts move a hole instead of swapping: the displaced elements
   shift one level each and the sifted element is written once, at its
   final slot. The comparisons, and so the heap layout, are those of a
   swap-based sift; only the writes drop — each pointer write into the
   long-lived [value] array goes through the write barrier, and a young
   value written at every level would be remembered at every level. *)

let[@inline] lt (p1 : float) (s1 : int) p2 s2 = p1 < p2 || (p1 = p2 && s1 < s2)

let[@inline] move q ~src ~dst =
  q.prio.(dst) <- q.prio.(src);
  q.seq.(dst) <- q.seq.(src);
  q.value.(dst) <- q.value.(src)

let[@inline] place q i (prio : float) seq value =
  q.prio.(i) <- prio;
  q.seq.(i) <- seq;
  q.value.(i) <- value

let push_seq q prio seq value =
  grow q;
  let i = ref q.size in
  q.size <- q.size + 1;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if lt prio seq q.prio.(parent) q.seq.(parent) then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else continue_ := false
  done;
  place q !i prio seq value

let push q prio value =
  push_seq q prio q.next_seq value;
  q.next_seq <- q.next_seq + 1

let pop q =
  if q.size = 0 then None
  else begin
    let prio = q.prio.(0) and value = q.value.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      (* sift the last element down from the root *)
      let n = q.size in
      let lp = q.prio.(n) and ls = q.seq.(n) and lv = q.value.(n) in
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        (* the smallest of the sifted element (-1) and the two children *)
        let smallest = ref (-1) and sp = ref lp and ss = ref ls in
        if l < n && lt q.prio.(l) q.seq.(l) !sp !ss then begin
          smallest := l;
          sp := q.prio.(l);
          ss := q.seq.(l)
        end;
        if r < n && lt q.prio.(r) q.seq.(r) !sp !ss then smallest := r;
        if !smallest >= 0 then begin
          move q ~src:!smallest ~dst:!i;
          i := !smallest
        end
        else continue_ := false
      done;
      place q !i lp ls lv
    end;
    (* the vacated slot (or slot 0 when the heap just emptied) must not
       keep the old value reachable *)
    q.value.(q.size) <- q.dummy;
    Some (prio, value)
  end
