(* Failure accounting: every checked output is one attempted operation,
   and every wrong, missing or degraded output one failed operation.
   Safe to share between domains and threads. *)

type t = {
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first, at most [keep] *)
}

let keep = 20

let create () = { lock = Mutex.create (); attempted = 0; failed = 0; reasons = [] }

let check t ~what ok =
  Mutex.protect t.lock (fun () ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if List.length t.reasons < keep then t.reasons <- what :: t.reasons
      end)

let fail t ~what = check t ~what false

let attempted t = Mutex.protect t.lock (fun () -> t.attempted)
let failed t = Mutex.protect t.lock (fun () -> t.failed)
let reasons t = Mutex.protect t.lock (fun () -> List.rev t.reasons)

let fail_ratio t =
  Mutex.protect t.lock (fun () ->
      if t.attempted = 0 then 0.
      else float_of_int t.failed /. float_of_int t.attempted)

(* Bit-identity, so a last-digit drift in a simulated figure is caught;
   NaN (a degraded cell) never matches. *)
let same_float a b =
  (not (Float.is_nan a)) && Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Expected values pinned in the benchmark's directory: one JSON object
   per workload mapping a key ("mcf/64/180", "mcf/cycles", ...) to a
   number.  Obs_json prints floats with enough digits to read back
   bit-identically. *)
module Pinned = struct
  type table = (string, (string, float) Hashtbl.t) Hashtbl.t

  let empty () : table = Hashtbl.create 4

  let of_json json : table =
    let table = empty () in
    (match json with
    | Obs_json.Obj workloads ->
      List.iter
        (fun (workload, values) ->
          let tbl = Hashtbl.create 64 in
          (match values with
          | Obs_json.Obj kvs ->
            List.iter (fun (k, v) -> Hashtbl.replace tbl k (Obs_json.to_float v)) kvs
          | _ -> invalid_arg "Pinned.of_json: workload entry is not an object");
          Hashtbl.replace table workload tbl)
        workloads
    | _ -> invalid_arg "Pinned.of_json: not an object");
    table

  let to_json (table : table) =
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    Obs_json.Obj
      (List.map
         (fun (workload, tbl) ->
           (workload, Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Num v)) (sorted tbl))))
         (sorted table))

  let find (table : table) ~workload key =
    Option.bind (Hashtbl.find_opt table workload) (fun tbl -> Hashtbl.find_opt tbl key)

  let set (table : table) ~workload key v =
    let tbl =
      match Hashtbl.find_opt table workload with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 64 in
        Hashtbl.replace table workload tbl;
        tbl
    in
    Hashtbl.replace tbl key v
end

(* Check [actual] against the pinned value under [key]; a missing pin
   is a failure too, so a workload cannot silently outgrow its pins. *)
let expect t pinned ~workload key actual =
  match Pinned.find pinned ~workload key with
  | None -> fail t ~what:(Printf.sprintf "%s: no pinned value for %s" workload key)
  | Some expected ->
    check t
      ~what:(Printf.sprintf "%s: %s = %.17g, pinned %.17g" workload key actual expected)
      (same_float expected actual)
