#include "baselines/seq_structures.hpp"

#include <cassert>
#include <cstddef>

namespace pimds::baselines {

bool SeqList::add_from(Cursor* cursor, std::uint64_t key) {
  assert(key >= 1);
  Node* prev = walk(resume_point(cursor), key);
  if (cursor != nullptr) cursor->prev = prev;
  Node* curr = prev->next;
  if (curr != nullptr && curr->key == key) return false;
  prev->next = new Node{key, curr};
  ++size_;
  return true;
}

bool SeqList::remove_from(Cursor* cursor, std::uint64_t key) {
  assert(key >= 1);
  Node* prev = walk(resume_point(cursor), key);
  if (cursor != nullptr) cursor->prev = prev;
  Node* curr = prev->next;
  if (curr == nullptr || curr->key != key) return false;
  prev->next = curr->next;
  delete curr;
  --size_;
  return true;
}

bool SeqList::contains_from(Cursor* cursor, std::uint64_t key) const {
  assert(key >= 1);
  Node* prev = walk(resume_point(cursor), key);
  if (cursor != nullptr) cursor->prev = prev;
  const Node* curr = prev->next;
  return curr != nullptr && curr->key == key;
}

bool SeqList::contains(std::uint64_t key) const {
  return contains_from(nullptr, key);
}

}  // namespace pimds::baselines
