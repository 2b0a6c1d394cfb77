type error =
  | Timeout of float
  | Crashed of exn
  | Gave_up of exn

let error_to_string = function
  | Timeout d -> Printf.sprintf "timeout: exceeded the %.3gs deadline" d
  | Crashed exn -> "crashed: " ^ Printexc.to_string exn
  | Gave_up exn -> "gave up after retries; last error: " ^ Printexc.to_string exn

type policy = {
  deadline : float option;
  retries : int;
  seed : int;
}

let default_policy = { deadline = None; retries = 0; seed = 0 }

(* Watchdog polling period, seconds. *)
let poll_interval = 0.002

type 'a attempt = {
  fut : 'a Exec.Future.t;
  started : float option Atomic.t;
  finished : float option Atomic.t;
}

type 'a handle = {
  pool : Exec.Pool.t;
  policy : policy;
  ident : string;
  thunk : unit -> 'a;
  mutable attempt_no : int;  (* 0 = first attempt *)
  mutable current : ('a attempt, error) result;
}

let start pool ident thunk =
  let started = Atomic.make None and finished = Atomic.make None in
  match
    Exec.Pool.submit pool (fun () ->
        Atomic.set started (Some (Clock.now ()));
        Fault_plan.hit ~ident "pool.job";
        let v = thunk () in
        Atomic.set finished (Some (Clock.now ()));
        v)
  with
  | fut -> Ok { fut; started; finished }
  | exception exn -> Error (Crashed exn)

let spawn pool policy ~ident thunk =
  { pool; policy; ident; thunk; attempt_no = 0; current = start pool ident thunk }

(* Watch one attempt to completion or deadline.  The deadline clock runs
   from thunk entry, so jobs parked behind a busy pool are not charged
   their queueing delay. *)
let watch policy attempt =
  let deadline_hit t0 = function
    | Some d when Clock.now () -. t0 > d -> Some (Timeout d)
    | Some _ | None -> None
  in
  let rec poll () =
    match Exec.Future.poll attempt.fut with
    | Some (Ok v) -> (
      (* Post-hoc classification: on the sequential pool (or when the
         job finished between polls) a stalled attempt still counts as
         timed out, keeping the verdict identical across --jobs. *)
      match (policy.deadline, Atomic.get attempt.started, Atomic.get attempt.finished)
      with
      | Some d, Some t0, Some t1 when t1 -. t0 > d -> Error (Timeout d)
      | _ -> Ok v)
    | Some (Error exn) -> Error (Crashed exn)
    | None -> (
      match Atomic.get attempt.started with
      | Some t0 -> (
        match deadline_hit t0 policy.deadline with
        | Some e -> Error e  (* abandon: the worker keeps the thunk, we move on *)
        | None ->
          Unix.sleepf poll_interval;
          poll ())
      | None ->
        Unix.sleepf poll_interval;
        poll ())
  in
  poll ()

let join h =
  let policy = h.policy in
  let rec drive () =
    match h.current with
    | Error e -> Error e
    | Ok attempt -> (
      match watch policy attempt with
      | Ok v -> Ok v
      | Error ((Timeout _ | Gave_up _) as e) -> Error e
      | Error (Crashed exn) ->
        if h.attempt_no >= policy.retries then
          if policy.retries = 0 then Error (Crashed exn) else Error (Gave_up exn)
        else begin
          let delay =
            Backoff.delay ~seed:policy.seed ~ident:h.ident
              ~attempt:h.attempt_no
          in
          Log.record
            (Log.Retry
               { ident = h.ident;
                 attempt = h.attempt_no + 1;
                 delay;
                 cause = Printexc.to_string exn });
          Unix.sleepf delay;
          h.attempt_no <- h.attempt_no + 1;
          h.current <- start h.pool h.ident h.thunk;
          drive ()
        end)
  in
  drive ()

let run pool policy ~ident thunk = join (spawn pool policy ~ident thunk)
