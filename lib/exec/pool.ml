type job = unit -> unit

exception Shut_down

type phase =
  | Open
  | Closing  (* queue closed; exactly one shutdown caller is joining *)
  | Joined

type pooled = {
  mutex : Mutex.t;
  cond : Condition.t;
  jobs : job Queue.t;  (* FIFO of submitted, not yet started jobs *)
  workers : int;
  mutable running : int;  (* jobs currently executing a thunk *)
  mutable phase : phase;
  aborted : bool Atomic.t;  (* shutdown ~drain:false: queued jobs are discarded *)
  mutable domains : unit Domain.t array;
}

type t =
  | Sequential
  | Pooled of pooled

let sequential = Sequential

(* The pool whose job the current domain is running, if any. *)
let serving : pooled option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Called with the mutex held; returns with it held.  [None] once the
   queue is closed and empty. *)
let rec next_job p =
  match Queue.take_opt p.jobs with
  | Some job ->
    p.running <- p.running + 1;
    Some job
  | None when p.phase <> Open -> None
  | None ->
    Condition.wait p.cond p.mutex;
    next_job p

(* Jobs never raise: submit's wrapper folds every exception into the
   job's future. *)
let worker_loop p =
  Domain.DLS.set serving (Some p);
  Mutex.lock p.mutex;
  let rec loop () =
    match next_job p with
    | None -> Mutex.unlock p.mutex
    | Some job ->
      Mutex.unlock p.mutex;
      job ();
      Mutex.lock p.mutex;
      p.running <- p.running - 1;
      loop ()
  in
  loop ()

let create ?(workers = Domain.recommended_domain_count ()) () =
  if workers <= 0 then Sequential
  else begin
    let p =
      { mutex = Mutex.create ();
        cond = Condition.create ();
        jobs = Queue.create ();
        workers;
        running = 0;
        phase = Open;
        aborted = Atomic.make false;
        domains = [||] }
    in
    p.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop p));
    Pooled p
  end

let of_jobs jobs =
  let workers = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  if workers <= 1 then Sequential else create ~workers ()

let parallelism = function
  | Sequential -> 1
  | Pooled p -> p.workers

type stats = {
  workers : int;
  queued : int;
  running : int;
  stolen : int;
}

let stats = function
  | Sequential -> { workers = 1; queued = 0; running = 0; stolen = 0 }
  | Pooled p ->
    Mutex.lock p.mutex;
    let s =
      { workers = p.workers; queued = Queue.length p.jobs; running = p.running; stolen = 0 }
    in
    Mutex.unlock p.mutex;
    s

let enqueue p job =
  Mutex.lock p.mutex;
  if p.phase <> Open then begin
    Mutex.unlock p.mutex;
    invalid_arg "Exec.Pool.submit: pool is shut down"
  end;
  Queue.push job p.jobs;
  (* Only workers wait on [cond] while the pool is open, so one signal
     wakes one worker. *)
  Condition.signal p.cond;
  Mutex.unlock p.mutex

let submit t f =
  match t with
  | Sequential -> (
    match f () with
    | v -> Future.of_value v
    | exception exn ->
      let fut = Future.create () in
      Future.fail fut exn (Printexc.get_raw_backtrace ());
      fut)
  | Pooled p ->
    let fut = Future.create () in
    let job () =
      (* An aborted pool still drains its queue, but each queued job
         resolves its future with Shut_down instead of running the
         thunk, so every awaiter gets a clean raise, never a deadlock. *)
      if Atomic.get p.aborted then
        Future.fail fut Shut_down (Printexc.get_callstack 0)
      else
        match f () with
        | v -> Future.fulfill fut v
        | exception exn -> Future.fail fut exn (Printexc.get_raw_backtrace ())
    in
    enqueue p job;
    fut

let await t fut =
  (match t, Domain.DLS.get serving with
  | Pooled p, Some q when p == q ->
    invalid_arg "Exec.Pool.await: called from a job of the same pool"
  | _ -> ());
  Future.await fut

let map_list t f xs =
  match t with
  | Sequential -> List.map f xs
  | Pooled _ ->
    let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
    List.map (await t) futures

let shutdown ?(drain = true) t =
  match t with
  | Sequential -> ()
  | Pooled p ->
    (* The abort flag goes up before the queue closes, so once submit is
       refused every job still queued is seen as aborted. *)
    if not drain then Atomic.set p.aborted true;
    Mutex.lock p.mutex;
    (* Exactly one caller closes and joins; concurrent or repeated calls
       wait on [cond] for it to finish. *)
    if p.phase = Open then begin
      p.phase <- Closing;
      Condition.broadcast p.cond;
      Mutex.unlock p.mutex;
      Array.iter Domain.join p.domains;
      Mutex.lock p.mutex;
      p.phase <- Joined;
      Condition.broadcast p.cond
    end
    else
      while p.phase <> Joined do
        Condition.wait p.cond p.mutex
      done;
    Mutex.unlock p.mutex
