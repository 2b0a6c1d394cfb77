type 'a t = {
  dummy : 'a;
  mutable data : 'a array;
  mutable len : int;
}

let create ?(capacity = 16) ~dummy () =
  { dummy; data = Array.make (max capacity 1) dummy; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

let to_array t = Array.sub t.data 0 t.len

let clear t = t.len <- 0
