(* sensor — the benchmark's host-speed reference.

     sensor.exe N

   Runs a fixed reference workload N times and prints each run's wall
   time in milliseconds, one per line. The workload is symbolic work of
   the kind the lifter does: it builds a string-keyed balanced map,
   queries it and sorts a list, so it allocates, promotes and collects
   much as the lifter does and slows down with it when a shared host
   contends for caches and memory. It uses the OCaml standard library
   only and runs in a process of its own, so no change to the repository
   (its code, its module initialisers or its GC settings) moves it. *)

module M = Map.Make (String)

let work () =
  let m = ref M.empty in
  for i = 0 to 50_000 do
    m := M.add (string_of_int (i * 7919 mod 1_000_003)) i !m
  done;
  let hits = ref 0 in
  for i = 0 to 50_000 do
    match M.find_opt (string_of_int (i * 104_729 mod 1_000_003)) !m with
    | Some v -> hits := !hits + v
    | None -> ()
  done;
  let sorted = List.sort compare (List.init 30_000 (fun i -> i * 7919 mod 100_003)) in
  !hits + List.length sorted

let () =
  let n = match Sys.argv with [| _; n |] -> int_of_string_opt n | _ -> None in
  match n with
  | Some n when n > 0 ->
      for _ = 1 to n do
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (work ()));
        Printf.printf "%.6f\n" ((Unix.gettimeofday () -. t0) *. 1000.)
      done
  | _ ->
      prerr_endline "usage: sensor.exe N";
      exit 2
