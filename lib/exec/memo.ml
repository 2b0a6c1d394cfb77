type 'v entry =
  | Ready of 'v
  | In_flight of 'v Future.t

type stats = {
  hits : int;
  misses : int;
  dedups : int;
  evictions : int;
  entries : int;
}

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, 'v entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable dedups : int;
  mutable evictions : int;
}

let create ?(size_hint = 64) () =
  { mutex = Mutex.create ();
    table = Hashtbl.create size_hint;
    hits = 0;
    misses = 0;
    dedups = 0;
    evictions = 0 }

let find_or_run t key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some (Ready v) ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.mutex;
    v
  | Some (In_flight fut) ->
    t.dedups <- t.dedups + 1;
    Mutex.unlock t.mutex;
    Future.await fut
  | None -> (
    t.misses <- t.misses + 1;
    let fut = Future.create () in
    Hashtbl.replace t.table key (In_flight fut);
    Mutex.unlock t.mutex;
    match f () with
    | v ->
      Mutex.lock t.mutex;
      Hashtbl.replace t.table key (Ready v);
      Mutex.unlock t.mutex;
      Future.fulfill fut v;
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock t.mutex;
      Hashtbl.remove t.table key;
      Mutex.unlock t.mutex;
      Future.fail fut exn bt;
      Printexc.raise_with_backtrace exn bt)

let remove t key =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.table key with
  | Some (Ready _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | Some (In_flight _) | None -> ());
  Mutex.unlock t.mutex

let clear t =
  Mutex.lock t.mutex;
  let dropped =
    Hashtbl.fold
      (fun _ e acc -> match e with Ready _ -> acc + 1 | In_flight _ -> acc)
      t.table 0
  in
  t.evictions <- t.evictions + dropped;
  (* Keep in-flight entries: their computations will still publish, and
     dropping them would let a concurrent duplicate start. *)
  let in_flight =
    Hashtbl.fold
      (fun k e acc -> match e with In_flight _ -> (k, e) :: acc | Ready _ -> acc)
      t.table []
  in
  Hashtbl.reset t.table;
  List.iter (fun (k, e) -> Hashtbl.replace t.table k e) in_flight;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n =
    Hashtbl.fold
      (fun _ e acc -> match e with Ready _ -> acc + 1 | In_flight _ -> acc)
      t.table 0
  in
  Mutex.unlock t.mutex;
  n

let stats t =
  Mutex.lock t.mutex;
  let entries =
    Hashtbl.fold
      (fun _ e acc -> match e with Ready _ -> acc + 1 | In_flight _ -> acc)
      t.table 0
  in
  let s =
    { hits = t.hits;
      misses = t.misses;
      dedups = t.dedups;
      evictions = t.evictions;
      entries }
  in
  Mutex.unlock t.mutex;
  s
