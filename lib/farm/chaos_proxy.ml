(* One client<->server connection pair.  Both pump threads share it;
   [sever] shuts both sockets down (waking any pump blocked in
   read/write), and the last pump to exit closes the descriptors. *)
type pair = {
  client_fd : Unix.file_descr;
  server_fd : Unix.file_descr;
  severed : bool Atomic.t;
  live : int Atomic.t;
}

type t = {
  listen : string;
  upstream : string;
  plan : Resil.Fault_plan.t;
  stop_flag : bool Atomic.t;
  listen_fd : Unix.file_descr Atomic.t;
  (* One frame counter per wire site, global and monotonic across every
     connection the proxy ever carries: "the 3rd downstream frame" means
     the same frame no matter how many times the client reconnected
     before it, which is what makes Nth-counted faults deterministic
     under retries. *)
  frames : (string * int Atomic.t) list;
  fired_rev : (string * int * Resil.Fault_plan.action) list ref;
  pairs : (int, pair) Hashtbl.t;
  pumps : (int, Thread.t) Hashtbl.t;
  mutex : Mutex.t;
  mutable acceptor : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let fired t = locked t (fun () -> List.rev !(t.fired_rev))
let frames t site = Atomic.get (List.assoc site t.frames)

let sever pair =
  if not (Atomic.exchange pair.severed true) then begin
    (try Unix.shutdown pair.client_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.shutdown pair.server_fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()
  end

let release pair =
  sever pair;
  if Atomic.fetch_and_add pair.live (-1) = 1 then begin
    (try Unix.close pair.client_fd with Unix.Unix_error _ -> ());
    try Unix.close pair.server_fd with Unix.Unix_error _ -> ()
  end

let pump t pair site ~src ~dst =
  let counter = List.assoc site t.frames in
  let note n action =
    locked t (fun () -> t.fired_rev := (site, n, action) :: !(t.fired_rev))
  in
  let rec loop () =
    match
      Farm_frame.read_fd ~poll:(fun () -> Atomic.get t.stop_flag) src
    with
    | `Eof | `Abort | `Idle_timeout | `Timeout -> ()
    | `Frame payload -> (
      let n = Atomic.fetch_and_add counter 1 + 1 in
      match Resil.Fault_plan.fires t.plan site n with
      | None ->
        Farm_frame.write_fd dst payload;
        loop ()
      | Some action -> (
        note n action;
        match action with
        | Resil.Fault_plan.Stall s ->
          Unix.sleepf s;
          Farm_frame.write_fd dst payload;
          loop ()
        | Throw -> ()
        | Corrupt | Truncate ->
          Farm_frame.write_raw_fd dst
            (Resil.Fault_plan.damage action (Farm_frame.encode payload))))
  in
  (try loop () with
  | Farm_frame.Frame_error _ | Farm_frame.Io_timeout _ -> ()
  | Unix.Unix_error _ | Sys_error _ -> ());
  release pair

let connect_upstream t =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX t.upstream) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let pump_counter = ref 0

let spawn_pump t pair site ~src ~dst =
  locked t (fun () ->
      let id = !pump_counter in
      incr pump_counter;
      let th =
        Thread.create
          (fun () ->
            Fun.protect
              (fun () -> pump t pair site ~src ~dst)
              ~finally:(fun () ->
                locked t (fun () -> Hashtbl.remove t.pumps id)))
          ()
      in
      Hashtbl.replace t.pumps id th)

let handle t client_fd =
  match connect_upstream t with
  | None ->
    (* No daemon behind us: the client sees an immediate EOF, which is
       exactly what a crashed server looks like. *)
    (try Unix.close client_fd with Unix.Unix_error _ -> ())
  | Some server_fd ->
    let pair =
      { client_fd; server_fd; severed = Atomic.make false; live = Atomic.make 2 }
    in
    locked t (fun () ->
        let id = !pump_counter in
        incr pump_counter;
        Hashtbl.replace t.pairs id pair);
    spawn_pump t pair "wire.up" ~src:client_fd ~dst:server_fd;
    spawn_pump t pair "wire.down" ~src:server_fd ~dst:client_fd

let accept_loop t fd =
  let rec go () =
    if not (Atomic.get t.stop_flag) then
      match Unix.accept ~cloexec:true fd with
      | client, _ ->
        if Atomic.get t.stop_flag then
          (try Unix.close client with Unix.Unix_error _ -> ())
        else handle t client;
        go ()
      | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> go ()
      | exception Unix.Unix_error _ when Atomic.get t.stop_flag -> ()
  in
  go ()

let start ~listen ~upstream ~plan =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  if Sys.file_exists listen then Unix.unlink listen;
  Unix.bind fd (Unix.ADDR_UNIX listen);
  Unix.listen fd 16;
  let t =
    { listen;
      upstream;
      plan;
      stop_flag = Atomic.make false;
      listen_fd = Atomic.make fd;
      frames =
        List.map (fun site -> (site, Atomic.make 0)) Resil.Fault_plan.wire_sites;
      fired_rev = ref [];
      pairs = Hashtbl.create 8;
      pumps = Hashtbl.create 16;
      mutex = Mutex.create ();
      acceptor = None }
  in
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t fd) ());
  t

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    let fd = Atomic.get t.listen_fd in
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (* Wake pumps blocked on a read or write so they observe the flag. *)
    locked t (fun () -> Hashtbl.iter (fun _ p -> sever p) t.pairs);
    (match t.acceptor with
    | Some th -> ( try Thread.join th with _ -> ())
    | None -> ());
    let rec drain () =
      match
        locked t (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.pumps [])
      with
      | [] -> ()
      | ths ->
        List.iter (fun th -> try Thread.join th with _ -> ()) ths;
        drain ()
    in
    drain ();
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Unix.unlink t.listen with Unix.Unix_error _ | Sys_error _ -> ()
  end
