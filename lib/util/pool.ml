(* Work queue = an atomic cursor over the input array; result slots are
   indexed by input position, so output order is independent of which
   domain claims which task. Workers are joined before [map] returns —
   no domain outlives the call. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* ---- the process-wide helper-domain budget ----

   One atomic counter of helper domains that may be running at any
   moment, initialized to [recommended_domain_count - 1] (the calling
   domain is not a helper). Default-concurrency callers CLAIM from it
   and clamp to what they get — a nested default [map] inside a pool
   worker finds the budget drained by its parent and runs sequentially
   instead of spawning jobs × jobs domains. Explicit requests (a user's
   [--jobs N], a serve request's slot) are honored as asked but still
   debit the budget, so the defaults beneath them clamp. *)

let budget_left = Atomic.make (max 0 (Domain.recommended_domain_count () - 1))

let budget () = max 0 (Atomic.get budget_left)

let release n = if n > 0 then ignore (Atomic.fetch_and_add budget_left n)

let claim_exact n = if n > 0 then ignore (Atomic.fetch_and_add budget_left (-n))

let rec claim ~max:m =
  let cur = Atomic.get budget_left in
  let take = min m (max 0 cur) in
  if take <= 0 then 0
  else if Atomic.compare_and_set budget_left cur (cur - take) then take
  else claim ~max:m

let with_budget n f =
  let target = max 0 n in
  let old = Atomic.exchange budget_left target in
  Fun.protect
    ~finally:(fun () ->
      (* Claims/releases may have raced [f]'s lifetime: blindly writing
         [old] back would erase them (a racing [claim] would keep a
         helper the counter no longer remembers, permanently shrinking
         the budget). Fast path: nothing moved, swing [target -> old]
         with a CAS. Otherwise apply the delta, preserving whatever the
         concurrent claimers did. *)
      if not (Atomic.compare_and_set budget_left target old) then
        ignore (Atomic.fetch_and_add budget_left (old - target)))
    f

type 'b slot = Empty | Done of 'b | Failed of exn * Printexc.raw_backtrace

(* the parallel body shared by the explicit and budget-clamped paths;
   [helpers] ≥ 1 domains are spawned (the caller works too) *)
let map_on ~helpers f input =
  let n = Array.length input in
  let slots = Array.make n Empty in
  let cursor = Atomic.make 0 in
  let worker () =
    let rec drain () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        (slots.(i) <-
          (match f input.(i) with
          | v -> Done v
          | exception e ->
              (* poison: park the cursor past the end so no domain
                 claims further tasks (each in-flight task still
                 finishes, and the map still re-raises below) *)
              Atomic.set cursor n;
              Failed (e, Printexc.get_raw_backtrace ())));
        drain ()
      end
    in
    drain ()
  in
  let workers = List.init helpers (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join workers;
  (* re-raise the lowest-index failure that actually ran; slots after
     the poison point may legitimately be [Empty] *)
  let failure = ref None in
  Array.iter
    (fun s ->
      match (s, !failure) with
      | Failed (e, bt), None -> failure := Some (e, bt)
      | _ -> ())
    slots;
  (match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.to_list
    (Array.map (function Done v -> v | Failed _ | Empty -> assert false) slots)

let map ?jobs f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs -> (
      match jobs with
      | Some j when max 1 j = 1 -> List.map f xs
      | Some j ->
          (* explicit request: honored as asked, but debited from the
             budget so nested default pools clamp instead of multiplying *)
          let input = Array.of_list xs in
          let helpers = min (max 1 j) (Array.length input) - 1 in
          if helpers = 0 then List.map f xs
          else begin
            claim_exact helpers;
            Fun.protect
              ~finally:(fun () -> release helpers)
              (fun () -> map_on ~helpers f input)
          end
      | None ->
          (* default concurrency: take what the budget grants, possibly
             nothing (→ sequential). A nested default map inside a pool
             worker or a parallel search lands here with the budget
             already drained by its parent. *)
          let input = Array.of_list xs in
          let helpers = claim ~max:(Array.length input - 1) in
          if helpers = 0 then List.map f xs
          else
            Fun.protect
              ~finally:(fun () -> release helpers)
              (fun () -> map_on ~helpers f input))

let map_reduce ?jobs ~map:f ~init ~reduce xs = List.fold_left reduce init (map ?jobs f xs)
