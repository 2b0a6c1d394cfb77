type job = unit -> unit

exception Shut_down

type pooled = {
  deques : job Ws_queue.t array;
  ids : Domain.id option Atomic.t array;  (* worker i's domain id, set at startup *)
  inject : job Inject.t;
  pending : int Atomic.t;  (* jobs enqueued anywhere but not yet started *)
  running : int Atomic.t;  (* jobs currently executing a thunk *)
  stolen : int Atomic.t;  (* cumulative jobs migrated between worker deques *)
  aborted : bool Atomic.t;  (* shutdown ~drain:false: queued jobs are discarded *)
  shut : int Atomic.t;  (* 0 running, 1 closing (one caller joins), 2 closed *)
  mutable domains : unit Domain.t array;
}

type t =
  | Sequential
  | Pooled of pooled

let sequential = Sequential

let worker_index p =
  let self = Domain.self () in
  let n = Array.length p.ids in
  let rec scan i =
    if i >= n then None
    else
      match Atomic.get p.ids.(i) with
      | Some id when id = self -> Some i
      | _ -> scan (i + 1)
  in
  scan 0

(* Acquire one runnable job: own deque, then steal a batch from a sibling,
   then the injection queue.  Decrements [pending] exactly when a job is
   handed out. *)
let find_job p i =
  let acquired job =
    Atomic.decr p.pending;
    Some job
  in
  match Ws_queue.pop p.deques.(i) with
  | Some job -> acquired job
  | None ->
    let n = Array.length p.deques in
    let rec try_steal off =
      if off >= n then None
      else
        let victim = (i + off) mod n in
        let took = Ws_queue.steal ~from:p.deques.(victim) ~into:p.deques.(i) in
        if took > 0 then begin
          ignore (Atomic.fetch_and_add p.stolen took);
          Ws_queue.pop p.deques.(i)
        end
        else try_steal (off + 1)
    in
    (match try_steal 1 with
    | Some job -> acquired job
    | None -> (
      match Inject.pop_opt p.inject with
      | Some job -> acquired job
      | None -> None))

let spin_budget = 256

(* Jobs never raise (submit's wrapper folds exceptions into the future),
   but guard the counter anyway so a bug there cannot wedge [running]. *)
let run_job p job =
  Atomic.incr p.running;
  Fun.protect job ~finally:(fun () -> Atomic.decr p.running)

let worker_loop p i =
  Atomic.set p.ids.(i) (Some (Domain.self ()));
  let rec loop spins =
    match find_job p i with
    | Some job ->
      run_job p job;
      loop 0
    | None ->
      if Inject.is_closed p.inject && Atomic.get p.pending = 0 then ()
      else if spins < spin_budget then begin
        Domain.cpu_relax ();
        loop (spins + 1)
      end
      else begin
        Inject.park p.inject ~should_wake:(fun () -> Atomic.get p.pending > 0);
        loop 0
      end
  in
  loop 0

let create ?(workers = Domain.recommended_domain_count ()) () =
  if workers <= 0 then Sequential
  else begin
    let p =
      { deques = Array.init workers (fun _ -> Ws_queue.create ());
        ids = Array.init workers (fun _ -> Atomic.make None);
        inject = Inject.create ();
        pending = Atomic.make 0;
        running = Atomic.make 0;
        stolen = Atomic.make 0;
        aborted = Atomic.make false;
        shut = Atomic.make 0;
        domains = [||] }
    in
    p.domains <- Array.init workers (fun i -> Domain.spawn (fun () -> worker_loop p i));
    Pooled p
  end

let of_jobs jobs =
  let workers = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
  if workers <= 1 then Sequential else create ~workers ()

let parallelism = function
  | Sequential -> 1
  | Pooled p -> Array.length p.deques

type stats = {
  workers : int;
  queued : int;
  running : int;
  stolen : int;
}

let stats = function
  | Sequential -> { workers = 1; queued = 0; running = 0; stolen = 0 }
  | Pooled p ->
    (* [pending] counts enqueued-but-not-started, read racily: a snapshot,
       not a fence.  [stolen] is cumulative and monotonic. *)
    { workers = Array.length p.deques;
      queued = max 0 (Atomic.get p.pending);
      running = Atomic.get p.running;
      stolen = Atomic.get p.stolen }

let enqueue p job =
  (* [pending] rises before the job is visible so that scanning workers
     never conclude the pool is idle while an enqueue is in flight. *)
  Atomic.incr p.pending;
  let queued =
    match worker_index p with
    | Some i when Ws_queue.push p.deques.(i) job ->
      (* Local push bypasses the injection queue; parked siblings must
         still learn there is something to steal. *)
      Inject.wake_all p.inject;
      true
    | _ -> Inject.push p.inject job
  in
  if not queued then begin
    Atomic.decr p.pending;
    invalid_arg "Exec.Pool.submit: pool is shut down"
  end

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
      (* An aborted pool still drains its queues, but each queued job
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
  match t with
  | Sequential -> Future.await fut
  | Pooled p -> (
    match worker_index p with
    | None -> Future.await fut
    | Some i ->
      (* Help-first: run queued jobs while the future is pending, so a
         worker awaiting its own sub-jobs makes progress instead of
         deadlocking the pool. *)
      Future.on_resolve fut (fun _ -> Inject.wake_all p.inject);
      let rec help spins =
        if Future.is_resolved fut then Future.await fut
        else
          match find_job p i with
          | Some job ->
            run_job p job;
            help 0
          | None ->
            if spins < spin_budget then begin
              Domain.cpu_relax ();
              help (spins + 1)
            end
            else begin
              Inject.park p.inject ~should_wake:(fun () ->
                  Future.is_resolved fut || Atomic.get p.pending > 0);
              help 0
            end
      in
      help 0)

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
    if not drain then begin
      Atomic.set p.aborted true;
      (* Parked workers must re-check: their queued jobs now short-circuit. *)
      Inject.wake_all p.inject
    end;
    (* Exactly one caller closes and joins; concurrent or repeated calls
       wait for it to finish, so shutdown is idempotent and never joins
       a domain twice. *)
    if Atomic.compare_and_set p.shut 0 1 then begin
      Inject.close p.inject;
      Array.iter Domain.join p.domains;
      Atomic.set p.shut 2
    end
    else
      while Atomic.get p.shut < 2 do
        Domain.cpu_relax ()
      done
