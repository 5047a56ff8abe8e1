type t = {
  stamp : int array;
  mutable gen : int;
  mutable items : int array;
  mutable n : int;
}

let create size =
  { stamp = Array.make (max 1 size) 0; gen = 1; items = Array.make 64 0; n = 0 }

let clear t =
  t.gen <- t.gen + 1;
  t.n <- 0

let mem t x = t.stamp.(x) = t.gen
let cardinal t = t.n
let items t = t.items

let add t x =
  if t.stamp.(x) <> t.gen then begin
    t.stamp.(x) <- t.gen;
    if t.n = Array.length t.items then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.items 0 a 0 t.n;
      t.items <- a
    end;
    t.items.(t.n) <- x;
    t.n <- t.n + 1
  end

let iter t f =
  for k = 0 to t.n - 1 do
    f t.items.(k)
  done
