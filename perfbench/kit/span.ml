(* In-memory spans around calls into the simulator's public layers.

   A span has a name (the public call, e.g. "Cpu_core.run"), start and
   end times, the id of the span that caused it and a tag naming the
   cell or request it belongs to.  Parents are passed explicitly, so
   spans from pool workers and client threads nest correctly without
   any per-thread state.  Recording is off unless [set_enabled true];
   when off, [record] only calls its body. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  tag : string;
  start : float;
  stop : float;
  lane : int;  (** recording domain, the Chrome-trace thread id *)
}

let no_parent = -1

let enabled = Atomic.make false
let next_id = Atomic.make 0
let lock = Mutex.create ()
let recorded : t list ref = ref []

let set_enabled b = Atomic.set enabled b

let add s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

let record ?(parent = no_parent) ?(tag = "") name f =
  if not (Atomic.get enabled) then f no_parent
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let start = Unix.gettimeofday () in
    let finish () =
      add
        { id; parent; name; tag; start; stop = Unix.gettimeofday ();
          lane = (Domain.self () :> int) }
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

let reset () = Mutex.protect lock (fun () -> recorded := [])

let duration s = s.stop -. s.start

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   direct children cover (overlapping children count once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> no_parent then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type summary = {
  count : int;
  self_s : float;  (** summed self time *)
  max_s : float;  (** longest single span *)
}

let by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev =
        Option.value ~default:{ count = 0; self_s = 0.; max_s = 0. }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { count = prev.count + 1;
          self_s = prev.self_s +. self;
          max_s = Float.max prev.max_s (duration s) })
    (self_times spans);
  fun name ->
    Option.value ~default:{ count = 0; self_s = 0.; max_s = 0. }
      (Hashtbl.find_opt tbl name)

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span), loadable in chrome://tracing or Perfetto. *)
let to_chrome spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us t = Obs_json.Num (Float.round ((t -. t0) *. 1e6)) in
  Obs_json.Obj
    [ ( "traceEvents",
        Obs_json.Arr
          (List.map
             (fun s ->
               Obs_json.Obj
                 [ ("name", Obs_json.Str s.name);
                   ("ph", Obs_json.Str "X");
                   ("ts", us s.start);
                   ("dur", Obs_json.Num (Float.round (duration s *. 1e6)));
                   ("pid", Obs_json.num_int 1);
                   ("tid", Obs_json.num_int s.lane);
                   ( "args",
                     Obs_json.Obj
                       [ ("id", Obs_json.num_int s.id);
                         ("parent", Obs_json.num_int s.parent);
                         ("tag", Obs_json.Str s.tag) ] ) ])
             spans) );
      ("displayTimeUnit", Obs_json.Str "ms") ]
