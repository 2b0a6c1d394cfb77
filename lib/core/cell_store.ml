type source =
  | Computed
  | Memo_hit
  | Journal_hit

type cell = {
  outcome : (float list, string) result Exec.Future.t;
  (* Claimed by the one awaiter that runs [settle]; the others block on
     [outcome]. *)
  driving : bool Atomic.t;
  settle : unit -> (float list, string) result;
}

type t = {
  journal : Resil.Journal.t option;
  pool : Exec.Pool.t;
  policy : Resil.Supervise.policy;
  cells : (string, cell) Exec.Memo.t;
}

let payload_format = "payload=hexfloat"

let create ?journal pool policy =
  { journal; pool; policy; cells = Exec.Memo.create ~size_hint:256 () }

(* "%h" round-trips every float bit for bit through float_of_string, and
   a one-value cell encodes exactly as the farm always has. *)
let encode vs = String.concat " " (List.map (Printf.sprintf "%h") vs)

let decode ~arity payload =
  let fields = String.split_on_char ' ' payload in
  if List.length fields <> arity then None
  else
    List.fold_right
      (fun field acc ->
        match (float_of_string_opt field, acc) with
        | Some v, Some vs -> Some (v :: vs)
        | _ -> None)
      fields (Some [])

(* The journal layer has already digest-checked the payload; one that
   still does not decode (a foreign writer) is quarantined, not
   trusted. *)
let restore t ~arity ident =
  match Option.bind t.journal (fun j -> Resil.Journal.find j ident) with
  | None -> None
  | Some payload -> (
    match decode ~arity payload with
    | Some vs ->
      Resil.Log.record (Resil.Log.Restored { ident });
      Some vs
    | None ->
      Resil.Log.record
        (Resil.Log.Quarantined
           { ident;
             reason =
               Printf.sprintf "journalled payload is not %d hex float(s); recomputing"
                 arity });
      None)

let checkpoint t ident vs =
  match t.journal with
  | None -> ()
  | Some j -> (
    try Resil.Journal.record j ~key:ident ~payload:(encode vs)
    with exn ->
      Resil.Log.record
        (Resil.Log.Quarantined
           { ident;
             reason =
               Printf.sprintf "checkpoint write failed (%s); cell kept in memory only"
                 (Printexc.to_string exn) }))

let await c =
  if Atomic.compare_and_set c.driving false true then
    (* [settle] never raises: Supervise.join folds every failure into
       its result and [checkpoint] catches its own. *)
    Exec.Future.fulfill c.outcome (c.settle ());
  Exec.Future.await c.outcome

let spawn t ident thunk =
  let handle = Resil.Supervise.spawn t.pool t.policy ~ident thunk in
  let settle () =
    match Resil.Supervise.join handle with
    | Ok vs ->
      checkpoint t ident vs;
      Ok vs
    | Error e ->
      let error = Resil.Supervise.error_to_string e in
      Exec.Memo.remove t.cells ident;
      Resil.Log.record (Resil.Log.Degraded { ident; error });
      Error error
  in
  { outcome = Exec.Future.create (); driving = Atomic.make false; settle }

let acquire t ~ident ~arity thunk =
  let source = ref Memo_hit in
  let cell =
    Exec.Memo.find_or_run t.cells ident (fun () ->
        match restore t ~arity ident with
        | Some vs ->
          source := Journal_hit;
          let r = Ok vs in
          { outcome = Exec.Future.of_value r; driving = Atomic.make true;
            settle = (fun () -> r) }
        | None ->
          source := Computed;
          spawn t ident thunk)
  in
  (* On a sequential pool the thunk already ran inline at spawn, so
     settle (and checkpoint) now: a kill mid-grid then keeps every
     finished cell.  On a real pool this would serialise the grid.  The
     memo entry is published by now, so a failure's eviction sticks. *)
  if Exec.Pool.parallelism t.pool <= 1 then ignore (await cell);
  (!source, cell)

let grid t ~names ~cols ~arity ~ident ~cell deliver =
  let names = Array.of_list names and cols = Array.of_list cols in
  let acquired = Array.map (fun _ -> Array.make (Array.length cols) None) names in
  List.iter
    (fun r ->
      let name = names.(r) in
      Array.iteri
        (fun j col ->
          let ident = ident name j in
          acquired.(r).(j) <-
            Some (ident, acquire t ~ident ~arity (fun () -> cell name col)))
        cols)
    (Grid.row_order (Array.to_list names));
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun j slot ->
          let ident, (source, c) = Option.get slot in
          deliver r j ident source (await c))
        row)
    acquired

let memo_stats t = Exec.Memo.stats t.cells

let journal_cells t = Option.fold ~none:0 ~some:Resil.Journal.size t.journal
