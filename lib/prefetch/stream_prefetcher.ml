type stream = {
  mutable last_line : int;
  mutable direction : int;  (* +1 / -1 / 0 unknown *)
  mutable confidence : int;
  mutable lru : int;
}

type t = {
  streams : stream array;
  degree : int;
  min_confidence : int;
  mutable clock : int;
}

let create ?(streams = 16) ?(degree = 4) ?(min_confidence = 2) () =
  { streams =
      Array.init streams (fun _ ->
          { last_line = min_int; direction = 0; confidence = 0; lru = 0 });
    degree;
    min_confidence;
    clock = 0 }

let degree t = t.degree

let rec find_match streams line i =
  if i = Array.length streams then -1
  else
    let delta = line - streams.(i).last_line in
    if delta <> 0 && abs delta <= 2 then i else find_match streams line (i + 1)

let rec lru_stream streams best i =
  if i = Array.length streams then best
  else
    lru_stream streams (if streams.(i).lru < streams.(best).lru then i else best) (i + 1)

(* Core access path: writes prefetch candidates into [into] (which must
   have room for [degree] lines) and returns how many were produced. *)
let access_into t ~line ~into =
  t.clock <- t.clock + 1;
  let m = find_match t.streams line 0 in
  if m >= 0 then begin
    let s = t.streams.(m) in
    let dir = if line - s.last_line > 0 then 1 else -1 in
    if s.direction = dir then s.confidence <- s.confidence + 1
    else begin
      s.direction <- dir;
      s.confidence <- 1
    end;
    s.last_line <- line;
    s.lru <- t.clock;
    if s.confidence >= t.min_confidence then begin
      for k = 0 to t.degree - 1 do
        into.(k) <- line + (dir * (k + 1))
      done;
      t.degree
    end
    else 0
  end
  else begin
    (* Allocate the LRU tracker for a potential new stream. *)
    let v = t.streams.(lru_stream t.streams 0 1) in
    v.last_line <- line;
    v.direction <- 0;
    v.confidence <- 0;
    v.lru <- t.clock;
    0
  end

let access t ~line =
  let into = Array.make t.degree 0 in
  let n = access_into t ~line ~into in
  List.init n (fun k -> into.(k))
