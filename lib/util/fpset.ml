type t = (int, unit) Hashtbl.t

let create () = Hashtbl.create 64
let mem = Hashtbl.mem

let check_add t fp =
  Hashtbl.mem t fp
  ||
  (Hashtbl.add t fp ();
   false)
