type t = {
  buf : int array;  (* 4 words per event: cycle, kind, a, b *)
  cap : int;
  mutable start : int;  (* index of the oldest event *)
  mutable len : int;
  mutable total : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Obs_ring.create: capacity must be positive";
  { buf = Array.make (capacity * 4) 0; cap = capacity; start = 0; len = 0; total = 0 }


let record t ~cycle ~kind ~a ~b =
  let slot = (t.start + t.len) mod t.cap in
  let base = slot * 4 in
  t.buf.(base) <- cycle;
  t.buf.(base + 1) <- kind;
  t.buf.(base + 2) <- a;
  t.buf.(base + 3) <- b;
  if t.len < t.cap then t.len <- t.len + 1 else t.start <- (t.start + 1) mod t.cap;
  t.total <- t.total + 1

let length t = t.len

let recorded t = t.total

let dropped t = t.total - t.len

let iter f t =
  for i = 0 to t.len - 1 do
    let base = (t.start + i) mod t.cap * 4 in
    f ~cycle:t.buf.(base) ~kind:t.buf.(base + 1) ~a:t.buf.(base + 2) ~b:t.buf.(base + 3)
  done
